package sched

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	fsaddr "fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/mem"
	"fsmem/internal/workload"
)

// refBaseline is the Baseline policy as it was before the incremental age
// view and the per-bank probe memo: every serve call re-gathers and
// insertion-sorts all queues, probes every candidate, and rescans every
// queue for each row-conflict candidate. It shares Baseline's state,
// refresh and CAS paths, which that change left untouched, and serves as
// the oracle the optimized policy must match command for command.
type refBaseline struct {
	*Baseline
	scratch []*mem.Request
}

func newRefBaseline(p dram.Params, cfg mem.Config) *refBaseline {
	return &refBaseline{Baseline: NewBaseline(p, cfg)}
}

func (b *refBaseline) Tick(c *mem.Controller) {
	if b.RefreshEnabled && b.tickRefresh(c) {
		return
	}

	pw := c.PendingWrites()
	if pw >= b.hi {
		b.draining = true
	}
	if pw <= b.lo {
		b.draining = false
	}

	writesFirst := b.draining || c.PendingReads() == 0
	if writesFirst {
		if b.serve(c, true) || b.serve(c, false) {
			return
		}
	} else {
		if b.serve(c, false) || b.serve(c, true) {
			return
		}
	}
}

func (b *refBaseline) serve(c *mem.Controller, writes bool) bool {
	reqs := b.gather(c, writes)
	if len(reqs) == 0 {
		return false
	}

	// 1. Row hits, oldest first.
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == r.Addr.Row {
			if b.issueCAS(c, r, writes) {
				return true
			}
		}
	}
	// 2. Activates for closed banks, oldest first.
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == dram.ClosedRow {
			cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
			if ok, _, _ := c.TryIssue(cmd); ok {
				c.RecordFirstCommand(r)
				r.Acted = true
				return true
			}
		}
	}
	// 3. Precharge row conflicts with no remaining hits to the open row.
	for _, r := range reqs {
		open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank)
		if open == dram.ClosedRow || open == r.Addr.Row {
			continue
		}
		if b.anyWantsRow(c, r.Addr.Rank, r.Addr.Bank, open) {
			continue
		}
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		if ok, _, _ := c.TryIssue(cmd); ok {
			return true
		}
	}
	return false
}

// gather flattens per-domain queues into a single age-ordered view.
func (b *refBaseline) gather(c *mem.Controller, writes bool) []*mem.Request {
	qs := c.ReadQ
	if writes {
		qs = c.WriteQ
	}
	out := b.scratch[:0]
	for _, q := range qs {
		out = append(out, q...)
	}
	// Insertion sort by arrival: queues are individually ordered and small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Arrive < out[j-1].Arrive; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	b.scratch = out
	return out
}

func (b *refBaseline) anyWantsRow(c *mem.Controller, rank, bank, row int) bool {
	for _, qs := range [][][]*mem.Request{c.ReadQ, c.WriteQ} {
		for _, q := range qs {
			for _, r := range q {
				if r.Addr.Rank == rank && r.Addr.Bank == bank && r.Addr.Row == row {
					return true
				}
			}
		}
	}
	return false
}

// issuedCmd is one command as the channel accepted it.
type issuedCmd struct {
	cmd   dram.Command
	cycle int64
}

// recordIssues captures every command the controller's channel accepts.
func recordIssues(c *mem.Controller) *[]issuedCmd {
	var out []issuedCmd
	c.Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
		out = append(out, issuedCmd{cmd, cycle})
	}
	return &out
}

// TestBaselineMatchesReference drives the optimized Baseline and the
// reference policy with one seeded random enqueue stream and requires
// identical command streams and per-domain statistics. The optimized
// controller runs the skipping Step, so a wake that is late on any cycle
// shows up as a missing command; the reference ticks on every cycle. The
// stream puts several domains' requests on the same cycle in shuffled
// domain order (arrival ties), alternates write-heavy and read-only phases
// so the drain latch crosses both watermarks, and draws rows from a small
// set so row hits, conflicts and shared open rows are all common. The deep
// cases use the benchmark's shape, 8 domains with 32-entry queues on 8
// ranks, where the rank-wide probe memo and the per-bank candidate list
// skip the most.
func TestBaselineMatchesReference(t *testing.T) {
	ddr3 := func(ranks int) dram.Params {
		p := dram.DDR3_1600()
		p.RanksPerChan = ranks
		return p
	}
	ddr4 := dram.DDR4_2400()
	ddr4.RanksPerChan = 2
	small := mem.Config{Domains: 4, ReadCap: 8, WriteCap: 8}
	deep := mem.Config{Domains: 8, ReadCap: 32, WriteCap: 32}
	cases := []struct {
		name    string
		p       dram.Params
		cfg     mem.Config
		refresh bool
	}{
		{"ddr3-1rank", ddr3(1), small, false},
		{"ddr3-2rank", ddr3(2), small, false},
		{"ddr3-2rank-refresh", ddr3(2), small, true},
		{"ddr3-8rank-refresh", ddr3(8), small, true},
		{"ddr4-2rank-bankgroups", ddr4, small, false},
		{"ddr4-2rank-bankgroups-refresh", ddr4, small, true},
		{"ddr3-8rank-deep", ddr3(8), deep, false},
		{"ddr3-8rank-deep-refresh", ddr3(8), deep, true},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				if testing.Short() && seed > 1 && tc.cfg != small {
					t.Skip("deep queues run one seed under -short")
				}
				diffAgainstReference(t, tc.p, tc.cfg, tc.refresh, seed)
			})
		}
	}
}

func diffAgainstReference(t *testing.T, p dram.Params, cfg mem.Config, refresh bool, seed uint64) {
	const cycles = 3 * 6240
	domains := cfg.Domains
	fast := NewBaseline(p, cfg)
	ref := newRefBaseline(p, cfg)
	fast.RefreshEnabled, ref.RefreshEnabled = refresh, refresh
	fc := mem.NewController(p, cfg, fast)
	rc := mem.NewController(p, cfg, ref)
	fastCmds, refCmds := recordIssues(fc), recordIssues(rc)

	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	order := make([]int, domains)
	for d := range order {
		order[d] = d
	}
	sawHigh, sawLow := false, false
	for cyc := 0; cyc < cycles; cyc++ {
		// Phases of 1500 cycles: even phases are write-heavy, odd ones
		// read-only, so the write buffers fill past the high watermark and
		// then drain below the low one. Each phase ends with a quiet spell
		// in which an overdue refresh can close its rank's banks. At most
		// four domains enqueue on one cycle, and the read phase thins out
		// in proportion to the total read capacity (arrivals on every
		// fourth cycle at the small shape's 32 entries, every 32nd at the
		// deep one's 256), so a deep drain still ends within the phase.
		writeHeavy := (cyc/1500)%2 == 0
		every := 4
		if !writeHeavy {
			every = domains * cfg.ReadCap / 8
		}
		if cyc%1500 < 1200 && rng.IntN(every) == 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, d := range order[:1+rng.IntN(min(domains, 4))] {
				a := dram.Address{Rank: rng.IntN(p.RanksPerChan), Bank: rng.IntN(p.BanksPerRank), Row: rng.IntN(4), Col: rng.IntN(p.ColsPerRow)}
				if writeHeavy && rng.IntN(4) != 0 {
					okF, okR := fc.EnqueueWrite(d, a), rc.EnqueueWrite(d, a)
					if okF != okR {
						t.Fatalf("cycle %d: write enqueue accepted=%v vs reference %v", cyc, okF, okR)
					}
				} else if !writeHeavy || rng.IntN(2) == 0 {
					okF, okR := fc.EnqueueRead(d, a, nil), rc.EnqueueRead(d, a, nil)
					if okF != okR {
						t.Fatalf("cycle %d: read enqueue accepted=%v vs reference %v", cyc, okF, okR)
					}
				}
			}
		}
		if pw := fc.PendingWrites(); pw >= fast.hi {
			sawHigh = true
		} else if pw <= fast.lo && sawHigh {
			sawLow = true
		}
		fc.Step()
		rc.Tick()
		if len(*fastCmds) != len(*refCmds) {
			n := min(len(*fastCmds), len(*refCmds))
			t.Fatalf("cycle %d: issued %d commands vs reference %d; tails %v vs %v",
				cyc, len(*fastCmds), len(*refCmds), (*fastCmds)[n:], (*refCmds)[n:])
		}
	}
	if !reflect.DeepEqual(*fastCmds, *refCmds) {
		for i := range *fastCmds {
			if (*fastCmds)[i] != (*refCmds)[i] {
				t.Fatalf("command %d: %+v, reference %+v", i, (*fastCmds)[i], (*refCmds)[i])
			}
		}
	}
	if !reflect.DeepEqual(fc.Dom, rc.Dom) {
		t.Fatalf("domain stats differ:\n%+v\nreference\n%+v", fc.Dom, rc.Dom)
	}
	if !sawHigh || !sawLow {
		t.Fatalf("write drain never crossed both watermarks (high %v, low %v)", sawHigh, sawLow)
	}
	if refresh && fc.Chan.Counters.Refreshes == 0 {
		t.Fatal("no refresh issued")
	}
	if len(*fastCmds) < cycles/20 {
		t.Fatalf("only %d commands in %d cycles: the stream exercised too little", len(*fastCmds), cycles)
	}
}

// benchTickQ64 times batches of Controller.Tick under the scheduler mk
// builds, with the queues topped back up to 64 requests from milc's
// address streams (8 domains, shared banks) before every tick, as the
// benchmark's scheduler replay does. One op is a batch of tickBatch ticks,
// so even a -benchtime=1x run times thousands of decisions.
func benchTickQ64(b *testing.B, mk func(dram.Params, mem.Config) mem.Scheduler) {
	const (
		depth     = 64
		tickBatch = 5000
	)
	p := dram.DDR3_1600()
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	gens := make([]*workload.Generator, len(mix.Profiles))
	for d := range gens {
		space, err := fsaddr.SpaceFor(fsaddr.PartitionNone, d, len(gens), p)
		if err != nil {
			b.Fatal(err)
		}
		gens[d] = workload.NewGenerator(mix.Profiles[d], space, p, uint64(d)+1)
	}
	cfg := mem.DefaultConfig(len(gens))
	ctl := mem.NewController(p, cfg, mk(p, cfg))
	d := 0
	batch := func() {
		for t := 0; t < tickBatch; t++ {
			for ctl.PendingReads()+ctl.PendingWrites() < depth {
				ref := gens[d].Next()
				if ref.Write {
					ctl.EnqueueWrite(d, ref.Addr)
				} else {
					ctl.EnqueueRead(d, ref.Addr, nil)
				}
				d = (d + 1) % len(gens)
			}
			ctl.Tick()
		}
	}
	// One untimed batch first, so a -benchtime=1x run times the steady
	// state (full queues, open rows) rather than the cold start.
	batch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkBaselineTickQ64 times Baseline decisions at queue depth 64.
func BenchmarkBaselineTickQ64(b *testing.B) {
	benchTickQ64(b, func(p dram.Params, cfg mem.Config) mem.Scheduler { return NewBaseline(p, cfg) })
}

// BenchmarkBaselineTickQ64Reference times the reference policy on the same
// input; CI gates the optimized tick at no more than a quarter of its time.
func BenchmarkBaselineTickQ64Reference(b *testing.B) {
	benchTickQ64(b, func(p dram.Params, cfg mem.Config) mem.Scheduler { return newRefBaseline(p, cfg) })
}
