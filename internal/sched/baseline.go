// Package sched contains the non-FS scheduling policies the paper compares
// against: an optimized non-secure baseline in the FR-FCFS family (standing
// in for the Memory Scheduling Championship 2012 winner) and Temporal
// Partitioning (Wang et al., HPCA 2014).
package sched

import (
	"math"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// Baseline is the optimized non-secure scheduler: open-page FR-FCFS with
// row-hit-first command selection, read-over-write priority, and
// watermark-based write draining. It freely mixes requests from all
// domains, which is precisely the behavior that leaks timing information.
type Baseline struct {
	p dram.Params

	// Write-drain watermarks as fractions of total write-buffer capacity.
	hi, lo int

	draining bool

	// Refresh state (per rank), active when RefreshEnabled.
	RefreshEnabled  bool
	refreshDeadline []int64

	// Per-bank scratch, indexed rank*BanksPerRank+bank. blocked holds, for
	// one tick, the probe kinds known to fail at the bank and whether serve
	// has listed the bank in cands; it is cleared once per tick, and so is
	// its tail rankBlocked, which holds per rank the kinds a rank-wide
	// constraint rejected. wantsOpen marks banks whose open row some queued
	// request targets, as of Controller.Gen demandGen.
	blocked     []uint8
	rankBlocked []uint8
	wantsOpen   []bool
	demandGen   uint64

	// cands lists, oldest first, the ByAge position of each bank's oldest
	// request that is not a row hit: the ACT candidate of a closed bank and
	// the PRE candidate of an open one. A bank is never both, so one list
	// serves both passes.
	cands []int32

	wake wake
}

// Bits of Baseline.blocked: a failed probe of each kind (a read and a
// write CAS are different kinds), and a bank listed in cands this tick.
const (
	blockedRead uint8 = 1 << iota
	blockedWrite
	blockedACT
	blockedPRE
	listed
)

// NewBaseline builds the baseline policy for the given parameters and
// per-domain controller configuration.
func NewBaseline(p dram.Params, cfg mem.Config) *Baseline {
	total := cfg.WriteCap * cfg.Domains
	b := &Baseline{
		p:  p,
		hi: total * 3 / 4,
		lo: total / 4,
	}
	b.blocked = make([]uint8, p.TotalBanks()+p.RanksPerChan)
	b.rankBlocked = b.blocked[p.TotalBanks():]
	b.wantsOpen = make([]bool, p.TotalBanks())
	b.demandGen = math.MaxUint64 // no demand marked yet
	b.cands = make([]int32, 0, p.TotalBanks())
	b.refreshDeadline = make([]int64, p.RanksPerChan)
	for r := range b.refreshDeadline {
		b.refreshDeadline[r] = int64(p.TREFI)
	}
	return b
}

// Name implements mem.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// NextEvent implements mem.EventSource: the wake the last tick recorded
// while the controller's Gen is unchanged, else now. A tick that records a
// wake has already settled the drain latch, which moves only when the
// write count does.
func (b *Baseline) NextEvent(c *mem.Controller) int64 { return b.wake.next(c) }

// Tick issues at most one command according to FR-FCFS priorities. A tick
// that issues nothing records a wake: the earliest of its failed probes'
// ReadyAt bounds and, with refresh on, the next refresh deadline.
func (b *Baseline) Tick(c *mem.Controller) {
	b.wake.start()
	b.wake.finish(c, b.tick(c))
}

func (b *Baseline) tick(c *mem.Controller) bool {
	if b.RefreshEnabled && b.tickRefresh(c) {
		return true
	}

	pw := c.PendingWrites()
	if pw >= b.hi {
		b.draining = true
	}
	if pw <= b.lo {
		b.draining = false
	}

	if pw == 0 && c.PendingReads() == 0 {
		return false
	}
	clear(b.blocked)
	if b.draining || c.PendingReads() == 0 {
		return b.serve(c, true) || b.serve(c, false)
	}
	return b.serve(c, false) || b.serve(c, true)
}

// serve attempts one command for the given request class. Priority order:
//  1. column access for the oldest row-hit request,
//  2. activate for the oldest request to a closed bank,
//  3. precharge for a bank whose oldest request is a row conflict and no
//     queued request still wants the open row.
//
// Channel.Ready depends only on a command's kind, rank, bank and the
// cycle, never on its row, column or domain, and nothing changes within a
// tick until a command issues. So once a probe of one kind fails for a
// bank, every later probe of that kind to the bank in the same tick would
// fail too, with the same ReadyAt bound: blocked skips them. A rejection
// on a rank-wide constraint blocks the kind on every bank of the rank: the
// same constraint rejects those probes up to the bound already folded.
// Passes 2 and 3 try only each bank's oldest request that is not a row
// hit, so the row-hit pass lists those in cands and the later passes visit
// banks instead of requests. A bank the tick's first serve listed is
// skipped by the second: when the first returns, that bank's ACT or PRE
// has failed or is unwanted, and the second would skip it anyway.
func (b *Baseline) serve(c *mem.Controller, writes bool) bool {
	reqs := c.ByAge(writes)
	if len(reqs) == 0 {
		return false
	}
	cas := blockedRead
	if writes {
		cas = blockedWrite
	}

	// 1. Row hits, oldest first; list every other bank's oldest request.
	b.cands = b.cands[:0]
	for i, r := range reqs {
		k := b.bankIndex(r)
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) != r.Addr.Row {
			if b.blocked[k]&listed == 0 {
				b.blocked[k] |= listed
				b.cands = append(b.cands, int32(i))
			}
			continue
		}
		if b.isBlocked(r, k, cas) {
			continue
		}
		if b.issueCAS(c, r, writes) {
			return true
		}
		b.block(r, k, cas)
	}
	// 2. Activates for closed banks, oldest first.
	for _, i := range b.cands {
		r := reqs[i]
		k := b.bankIndex(r)
		if b.isBlocked(r, k, blockedACT) || c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) != dram.ClosedRow {
			continue
		}
		cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
		if b.wake.try(c, cmd) {
			c.RecordFirstCommand(r)
			r.Acted = true
			return true
		}
		b.block(r, k, blockedACT)
	}
	// 3. Precharge row conflicts with no remaining hits to the open row.
	for _, i := range b.cands {
		r := reqs[i]
		k := b.bankIndex(r)
		if b.isBlocked(r, k, blockedPRE) || c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == dram.ClosedRow {
			continue
		}
		b.markOpenRowDemand(c)
		if b.wantsOpen[k] {
			continue
		}
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		if b.wake.try(c, cmd) {
			return true
		}
		b.block(r, k, blockedPRE)
	}
	return false
}

// isBlocked reports whether a probe of the kind to r's bank k already
// failed this tick, at the bank or rank-wide.
func (b *Baseline) isBlocked(r *mem.Request, k int, kind uint8) bool {
	return (b.blocked[k]|b.rankBlocked[r.Addr.Rank])&kind != 0
}

// block memoizes the failed probe of the kind to r's bank k for the rest
// of the tick: at its rank when the probe met a rank-wide constraint, else
// at the bank.
func (b *Baseline) block(r *mem.Request, k int, kind uint8) {
	if b.wake.rankWide {
		b.rankBlocked[r.Addr.Rank] |= kind
	} else {
		b.blocked[k] |= kind
	}
}

// bankIndex locates a request's bank in the per-bank scratch slices.
func (b *Baseline) bankIndex(r *mem.Request) int {
	return r.Addr.Rank*b.p.BanksPerRank + r.Addr.Bank
}

// markOpenRowDemand sets wantsOpen for every bank whose open row a queued
// read or write targets, in one pass over both request classes. The marks
// read only the queues and the open rows, so they are rebuilt only when
// Controller.Gen has moved since the last pass.
func (b *Baseline) markOpenRowDemand(c *mem.Controller) {
	g := c.Gen()
	if g == b.demandGen {
		return
	}
	b.demandGen = g
	clear(b.wantsOpen)
	for _, reqs := range [2][]*mem.Request{c.ByAge(false), c.ByAge(true)} {
		for _, r := range reqs {
			if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == r.Addr.Row {
				b.wantsOpen[b.bankIndex(r)] = true
			}
		}
	}
}

func (b *Baseline) issueCAS(c *mem.Controller, r *mem.Request, write bool) bool {
	kind := dram.KindRead
	dataStart := b.p.ReadDataStart()
	if write {
		kind = dram.KindWrite
		dataStart = b.p.WriteDataStart()
	}
	cmd := dram.Command{Kind: kind, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Col: r.Addr.Col, Domain: r.Domain}
	if !b.wake.try(c, cmd) {
		return false
	}
	c.RecordFirstCommand(r)
	if !r.Acted {
		c.Dom[r.Domain].RowHits++
	}
	r.DataEnd = c.Cycle + int64(dataStart) + int64(b.p.TBURST)
	var err error
	if write {
		err = c.RemoveWrite(r)
	} else {
		err = c.RemoveRead(r)
	}
	if err != nil {
		c.ReportViolation(err)
	}
	c.CompleteAt(r, r.DataEnd)
	return true
}

// tickRefresh manages per-rank refresh: when a deadline passes, open banks
// are precharged and REF issued; returns true if it used the command bus.
// A deadline still ahead goes into the wake, and so does the bound of a
// blocked PRE or REF.
func (b *Baseline) tickRefresh(c *mem.Controller) bool {
	for rank := range b.refreshDeadline {
		if c.Cycle < b.refreshDeadline[rank] {
			b.wake.fold(b.refreshDeadline[rank])
			continue
		}
		// Close any open bank first.
		for bank := 0; bank < b.p.BanksPerRank; bank++ {
			if c.Chan.OpenRow(rank, bank) != dram.ClosedRow {
				cmd := dram.Command{Kind: dram.KindPrecharge, Rank: rank, Bank: bank, Domain: dram.NoDomain}
				if b.wake.try(c, cmd) {
					return true
				}
				return false // blocked; retry at the wake
			}
		}
		cmd := dram.Command{Kind: dram.KindRefresh, Rank: rank, Domain: dram.NoDomain}
		if b.wake.try(c, cmd) {
			b.refreshDeadline[rank] += int64(b.p.TREFI)
			return true
		}
		return false
	}
	return false
}

// ObsMetrics contributes the policy's live state to an observability
// snapshot (structurally satisfies obs.MetricSource).
func (b *Baseline) ObsMetrics(emit func(name string, value float64)) {
	emit("drain_high_watermark", float64(b.hi))
	emit("drain_low_watermark", float64(b.lo))
	draining := 0.0
	if b.draining {
		draining = 1
	}
	emit("draining", draining)
}
