package sched

import (
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

func addr(rank, bank, row int) dram.Address { return dram.Address{Rank: rank, Bank: bank, Row: row} }

func baselineCtl(domains int) (*mem.Controller, *Baseline) {
	p := dram.DDR3_1600()
	cfg := mem.DefaultConfig(domains)
	b := NewBaseline(p, cfg)
	return mem.NewController(p, cfg, b), b
}

func tick(c *mem.Controller, n int) {
	for i := 0; i < n; i++ {
		c.Tick()
	}
}

func TestBaselineServicesARead(t *testing.T) {
	c, _ := baselineCtl(1)
	done := false
	c.EnqueueRead(0, addr(0, 0, 5), func() { done = true })
	tick(c, 100)
	if !done {
		t.Fatal("read never completed")
	}
	if c.Chan.Counters.Acts != 1 || c.Chan.Counters.Reads != 1 {
		t.Errorf("counters: %+v", c.Chan.Counters)
	}
}

func TestBaselineRowHitPriority(t *testing.T) {
	c, _ := baselineCtl(1)
	var order []int
	mkdone := func(id int) func() { return func() { order = append(order, id) } }
	// Oldest request to row 1, then row 2 (same bank), then another row 1.
	c.EnqueueRead(0, addr(0, 0, 1), mkdone(1))
	tick(c, 1)
	c.EnqueueRead(0, addr(0, 0, 2), mkdone(2))
	tick(c, 1)
	c.EnqueueRead(0, addr(0, 0, 1), mkdone(3))
	tick(c, 400)
	if len(order) != 3 {
		t.Fatalf("completed %d of 3", len(order))
	}
	// FR-FCFS: the second row-1 request (id 3) hits the open row and must
	// overtake the row-2 request (id 2).
	if !(order[0] == 1 && order[1] == 3 && order[2] == 2) {
		t.Errorf("completion order %v, want [1 3 2] (row-hit first)", order)
	}
	if c.Dom[0].RowHits == 0 {
		t.Error("no row hits recorded")
	}
}

func TestBaselineOpenPageLeavesRowOpen(t *testing.T) {
	c, _ := baselineCtl(1)
	c.EnqueueRead(0, addr(0, 0, 7), nil)
	tick(c, 100)
	if got := c.Chan.OpenRow(0, 0); got != 7 {
		t.Errorf("open row = %d, want 7 (open-page policy)", got)
	}
}

func TestBaselineWriteDrainWatermark(t *testing.T) {
	c, b := baselineCtl(1)
	// Fill writes past the high watermark with no reads pending.
	for i := 0; i < c.Cfg.WriteCap; i++ {
		c.EnqueueWrite(0, addr(0, i%8, i))
	}
	if c.PendingWrites() <= b.hi {
		t.Skip("watermark larger than a single domain's buffer")
	}
	tick(c, 2000)
	if c.Dom[0].Writes == 0 {
		t.Fatal("no writes drained")
	}
	if c.PendingWrites() > b.lo {
		t.Errorf("drain stopped at %d pending, above the low watermark %d", c.PendingWrites(), b.lo)
	}
}

func TestBaselineReadsPreemptWrites(t *testing.T) {
	c, _ := baselineCtl(1)
	for i := 0; i < 4; i++ {
		c.EnqueueWrite(0, addr(0, 1, i))
	}
	done := false
	c.EnqueueRead(0, addr(0, 0, 1), func() { done = true })
	tick(c, 60)
	if !done {
		t.Error("read starved behind a small write backlog")
	}
}

func TestBaselineRefresh(t *testing.T) {
	p := dram.DDR3_1600()
	cfg := mem.DefaultConfig(1)
	b := NewBaseline(p, cfg)
	b.RefreshEnabled = true
	c := mem.NewController(p, cfg, b)
	// Open a row so the refresh path must precharge first.
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	tick(c, int(p.TREFI)+int(p.TRFC)+200)
	if c.Chan.Counters.Refreshes == 0 {
		t.Fatal("no refresh issued after tREFI")
	}
}

func TestTPConstruction(t *testing.T) {
	p := dram.DDR3_1600()
	if _, err := NewTP(p, TPBankPartitioned, 0, 15); err == nil {
		t.Error("zero domains should fail")
	}
	if _, err := NewTP(p, TPBankPartitioned, 8, 3); err == nil {
		t.Error("turn shorter than reserve should fail")
	}
	tp, err := NewTP(p, TPNoPartitioning, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Name() == "" {
		t.Error("empty name")
	}
}

func TestTPModeParameters(t *testing.T) {
	p := dram.DDR3_1600()
	if got := TPBankPartitioned.Reserve(p); got != 15 {
		t.Errorf("BP reserve = %d, want 15", got)
	}
	if got := TPNoPartitioning.Reserve(p); got != 43 {
		t.Errorf("NP reserve = %d, want 43", got)
	}
	if TPBankPartitioned.String() == TPNoPartitioning.String() {
		t.Error("mode names collide")
	}
}

func tpCtl(t *testing.T, mode TPMode, domains int, turn int64) (*mem.Controller, *TP) {
	t.Helper()
	p := dram.DDR3_1600()
	cfg := mem.DefaultConfig(domains)
	tp, err := NewTP(p, mode, domains, turn)
	if err != nil {
		t.Fatal(err)
	}
	return mem.NewController(p, cfg, tp), tp
}

func TestTPTurnExclusivity(t *testing.T) {
	c, tp := tpCtl(t, TPBankPartitioned, 4, 15)
	// Domain d owns bank d (bank partitioning); track which bank each
	// command touches and map it back to its turn's owner.
	violations := 0
	c.Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
		if cmd.Kind != dram.KindActivate {
			return
		}
		owner := int((cycle / tp.TurnLength) % int64(4))
		if cmd.Bank != owner {
			violations++
		}
	}
	for d := 0; d < 4; d++ {
		for i := 0; i < 8; i++ {
			c.EnqueueRead(d, addr(d%2, d, i+1), nil)
		}
	}
	tick(c, 2000)
	if violations != 0 {
		t.Fatalf("%d commands issued outside their owner's turn", violations)
	}
	var served int64
	for d := range c.Dom {
		served += c.Dom[d].Reads
	}
	if served != 32 {
		t.Errorf("served %d of 32 reads", served)
	}
}

func TestTPFineGrainedOneTransactionPerTurn(t *testing.T) {
	c, tp := tpCtl(t, TPBankPartitioned, 8, 15)
	for d := 0; d < 8; d++ {
		for i := 0; i < 4; i++ {
			c.EnqueueRead(d, addr(d, d, i+1), nil)
		}
	}
	actsPerTurn := map[int64]int{}
	c.Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
		if cmd.Kind == dram.KindActivate {
			actsPerTurn[cycle/tp.TurnLength]++
		}
	}
	tick(c, 3000)
	for turn, n := range actsPerTurn {
		if n > 1 {
			t.Fatalf("turn %d started %d transactions at the minimum turn length", turn, n)
		}
	}
}

func TestTPCoarseGrainedMultipleTransactions(t *testing.T) {
	c, tp := tpCtl(t, TPBankPartitioned, 4, 25)
	for d := 0; d < 4; d++ {
		for i := 0; i < 8; i++ {
			c.EnqueueRead(d, addr(i%8, d, i+1), nil)
		}
	}
	maxPerTurn := 0
	acts := map[int64]int{}
	c.Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
		if cmd.Kind == dram.KindActivate {
			acts[cycle/tp.TurnLength]++
			if acts[cycle/tp.TurnLength] > maxPerTurn {
				maxPerTurn = acts[cycle/tp.TurnLength]
			}
		}
	}
	tick(c, 3000)
	if maxPerTurn < 2 {
		t.Errorf("coarse turn never batched transactions (max %d per turn)", maxPerTurn)
	}
}

func TestTPNoPartitioningIsTimingLegal(t *testing.T) {
	// All domains hammer the same bank: the NP reserve must keep the
	// channel legal (any violation panics inside dram validation... here it
	// surfaces as requests never completing).
	c, _ := tpCtl(t, TPNoPartitioning, 4, 43)
	for d := 0; d < 4; d++ {
		for i := 0; i < 4; i++ {
			c.EnqueueRead(d, addr(0, 0, 100*d+i+1), nil)
		}
	}
	tick(c, 43*4*40)
	var served int64
	for d := range c.Dom {
		served += c.Dom[d].Reads
	}
	if served != 16 {
		t.Fatalf("served %d of 16 same-bank reads", served)
	}
}
