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

	// Per-bank scratch for serve, indexed rank*BanksPerRank+bank: blocked
	// memoizes the probe kinds that already failed this call, wantsOpen
	// marks banks whose open row some queued request targets.
	blocked   []uint8
	wantsOpen []bool
}

// Probe kinds recorded in Baseline.blocked.
const (
	blockedCAS uint8 = 1 << iota
	blockedACT
	blockedPRE
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
	b.blocked = make([]uint8, p.TotalBanks())
	b.wantsOpen = make([]bool, p.TotalBanks())
	b.refreshDeadline = make([]int64, p.RanksPerChan)
	for r := range b.refreshDeadline {
		b.refreshDeadline[r] = int64(p.TREFI)
	}
	return b
}

// Name implements mem.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// NextEvent implements mem.EventSource. With any request queued the policy
// may act on the very next tick; while the drain latch is set an otherwise
// idle tick still settles it back below the low watermark (the latch is
// observable through ObsMetrics, so its settling cycle must stay exact).
// Otherwise only a refresh deadline can wake the scheduler.
func (b *Baseline) NextEvent(c *mem.Controller) int64 {
	if b.draining || c.PendingReads() > 0 || c.PendingWrites() > 0 {
		return c.Cycle
	}
	if !b.RefreshEnabled {
		return math.MaxInt64
	}
	h := int64(math.MaxInt64)
	for _, d := range b.refreshDeadline {
		if d < h {
			h = d
		}
	}
	if h < c.Cycle {
		h = c.Cycle // refresh overdue (e.g. blocked last tick): retry now
	}
	return h
}

// Tick issues at most one command according to FR-FCFS priorities.
func (b *Baseline) Tick(c *mem.Controller) {
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

// serve attempts one command for the given request class. Priority order:
//  1. column access for the oldest row-hit request,
//  2. activate for the oldest request to a closed bank,
//  3. precharge for a bank whose oldest request is a row conflict and no
//     queued request still wants the open row.
//
// Channel.Ready depends only on a command's kind, rank, bank and the
// cycle, never on its row, column or domain, so once a probe of one kind
// fails for a bank every later probe of that kind to the bank in the same
// call would fail too: blocked skips them. Every command that does issue
// still goes through Controller.TryIssue's full check.
func (b *Baseline) serve(c *mem.Controller, writes bool) bool {
	reqs := c.ByAge(writes)
	if len(reqs) == 0 {
		return false
	}
	clear(b.blocked)

	// 1. Row hits, oldest first.
	for _, r := range reqs {
		k := b.bankIndex(r)
		if b.blocked[k]&blockedCAS != 0 || c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) != r.Addr.Row {
			continue
		}
		if b.issueCAS(c, r, writes) {
			return true
		}
		b.blocked[k] |= blockedCAS
	}
	// 2. Activates for closed banks, oldest first.
	for _, r := range reqs {
		k := b.bankIndex(r)
		if b.blocked[k]&blockedACT != 0 || c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) != dram.ClosedRow {
			continue
		}
		cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
		if c.TryIssue(cmd) {
			c.RecordFirstCommand(r)
			r.Acted = true
			return true
		}
		b.blocked[k] |= blockedACT
	}
	// 3. Precharge row conflicts with no remaining hits to the open row.
	swept := false
	for _, r := range reqs {
		k := b.bankIndex(r)
		if b.blocked[k]&blockedPRE != 0 {
			continue
		}
		open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank)
		if open == dram.ClosedRow || open == r.Addr.Row {
			continue
		}
		if !swept {
			b.markOpenRowDemand(c)
			swept = true
		}
		if b.wantsOpen[k] {
			continue
		}
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		if c.TryIssue(cmd) {
			return true
		}
		b.blocked[k] |= blockedPRE
	}
	return false
}

// bankIndex locates a request's bank in the per-bank scratch slices.
func (b *Baseline) bankIndex(r *mem.Request) int {
	return r.Addr.Rank*b.p.BanksPerRank + r.Addr.Bank
}

// markOpenRowDemand sets wantsOpen for every bank whose open row a queued
// read or write targets, in one pass over both request classes.
func (b *Baseline) markOpenRowDemand(c *mem.Controller) {
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
	if !c.TryIssue(cmd) {
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
func (b *Baseline) tickRefresh(c *mem.Controller) bool {
	for rank := range b.refreshDeadline {
		if c.Cycle < b.refreshDeadline[rank] {
			continue
		}
		// Close any open bank first.
		for bank := 0; bank < b.p.BanksPerRank; bank++ {
			if c.Chan.OpenRow(rank, bank) != dram.ClosedRow {
				cmd := dram.Command{Kind: dram.KindPrecharge, Rank: rank, Bank: bank, Domain: dram.NoDomain}
				if c.TryIssue(cmd) {
					return true
				}
				return false // blocked this cycle; retry next
			}
		}
		cmd := dram.Command{Kind: dram.KindRefresh, Rank: rank, Domain: dram.NoDomain}
		if c.TryIssue(cmd) {
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
