// Package sched contains the non-FS scheduling policies the paper compares
// against: an optimized non-secure baseline in the FR-FCFS family (standing
// in for the Memory Scheduling Championship 2012 winner) and Temporal
// Partitioning (Wang et al., HPCA 2014).
package sched

import (
	"math"
	"math/bits"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// Baseline is the optimized non-secure scheduler: open-page FR-FCFS with
// row-hit-first command selection, read-over-write priority, and
// watermark-based write draining. It freely mixes requests from all
// domains, which is precisely the behavior that leaks timing information.
//
// It is event-driven: a tick probes only the candidate commands whose
// bound has passed, and NextEvent names the earliest bound (see
// NextEvent).
type Baseline struct {
	banks int // banks per rank

	// Write-drain watermarks as fractions of total write-buffer capacity.
	hi, lo int

	draining bool

	// Refresh state (per rank), active when RefreshEnabled. refreshAt is a
	// lower bound on the next cycle the refresh path can issue, and
	// refreshPending says a deadline has passed (see tickRefresh).
	RefreshEnabled  bool
	refreshDeadline []int64
	refreshAt       int64
	refreshPending  bool

	// The wake. A candidate is a command FR-FCFS would probe at a bank: a
	// CAS for the bank's oldest row hit of a class, or an ACT (closed bank)
	// or PRE (open bank no queued request hits) for its oldest other
	// request. Per bank (rank*BanksPerRank+bank), kinds holds the probe
	// kinds it has a candidate of, as bits, and bankAt a lower bound on the
	// first cycle any of them may issue. byKind holds the same kinds as one
	// bitset of banks per probe kind, words long. serveAt is the earliest
	// bankAt unless dirty is set.
	kinds   []uint8
	bankAt  []int64
	byKind  []uint64
	words   int
	serveAt int64
	dirty   bool

	// gen is Controller.Gen after the last change the wake accounts for; a
	// change it missed, or gen set to unsynced, forces a rebuild.
	gen uint64
}

// Probe kinds: a read or write CAS, an ACT, a PRE. They index the
// candidate bitsets.
const (
	probeRead = iota
	probeWrite
	probeACT
	probePRE
	probeKinds
)

// probeCmd is the DRAM command of each probe kind.
var probeCmd = [probeKinds]dram.Kind{dram.KindRead, dram.KindWrite, dram.KindActivate, dram.KindPrecharge}

const (
	never    = math.MaxInt64  // the bound of a bank with nothing to issue
	unsynced = math.MaxUint64 // a gen no controller reaches: rebuild
)

// NewBaseline builds the baseline policy for the given parameters and
// per-domain controller configuration.
func NewBaseline(p dram.Params, cfg mem.Config) *Baseline {
	total := cfg.WriteCap * cfg.Domains
	words := (p.TotalBanks() + 63) / 64
	b := &Baseline{
		banks:  p.BanksPerRank,
		hi:     total * 3 / 4,
		lo:     total / 4,
		kinds:  make([]uint8, p.TotalBanks()),
		bankAt: make([]int64, p.TotalBanks()),
		byKind: make([]uint64, probeKinds*words),
		words:  words,
		gen:    unsynced,
	}
	b.refreshDeadline = make([]int64, p.RanksPerChan)
	for r := range b.refreshDeadline {
		b.refreshDeadline[r] = int64(p.TREFI)
	}
	return b
}

// Name implements mem.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// NextEvent implements mem.EventSource. It is the earliest bank bound and,
// with refresh on, the refresh path's bound; it is the current cycle
// while the next tick would move the drain latch, which the dense loop
// updates on every cycle and ObsMetrics reports. The answer stays valid
// across enqueues (Enqueued folds in each new candidate) and across the
// Baseline's own commands (each recomputes the bounds it can move, from
// the channel, so a command an injector dropped or delayed leaves them
// right). A change the Baseline did not make, such as an injector's replay
// or a derate, shows in Controller.Gen and rebuilds the wake from the
// queues and the channel.
func (b *Baseline) NextEvent(c *mem.Controller) int64 {
	b.sync(c)
	if pw := c.PendingWrites(); pw >= b.hi && !b.draining || pw <= b.lo && b.draining {
		return c.Cycle
	}
	return max(c.Cycle, min(b.serveAt, b.refreshAt))
}

// Tick issues at most one command according to FR-FCFS priorities. Only
// candidates whose bound has passed are probed.
func (b *Baseline) Tick(c *mem.Controller) {
	b.sync(c)
	if b.RefreshEnabled && c.Cycle >= b.refreshAt && b.tickRefresh(c) {
		b.gen = unsynced // a PRE or REF of the refresh path: rebuild
		return
	}

	pw := c.PendingWrites()
	if pw >= b.hi {
		b.draining = true
	}
	if pw <= b.lo {
		b.draining = false
	}
	if c.Cycle < b.serveAt {
		return
	}
	if b.draining || c.PendingReads() == 0 {
		_ = b.serve(c, true) || b.serve(c, false)
	} else {
		_ = b.serve(c, false) || b.serve(c, true)
	}
}

// Enqueued implements mem.QueueObserver: a request that gives its bank a
// new candidate kind, or hits the open row of a bank waiting to
// precharge, updates the bank's kinds and makes the bank due now.
func (b *Baseline) Enqueued(c *mem.Controller, r *mem.Request) {
	if c.Gen() != b.gen+1 {
		b.gen = unsynced
		return
	}
	b.gen = c.Gen()
	k := r.Addr.Rank*b.banks + r.Addr.Bank
	kinds, want := b.kinds[k], b.kinds[k]
	switch open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank); {
	case open == dram.ClosedRow:
		want = 1 << probeACT
	case r.Addr.Row == open:
		want = kinds&^(1<<probePRE) | 1<<casKind(r.Write)
	case kinds == 0:
		want = 1 << probePRE
	}
	if want != kinds {
		// The first probe tells whether the new candidate may issue now; a
		// failed one derives its bound.
		b.setKinds(k, want)
		b.bankAt[k] = c.Cycle
		b.serveAt = min(b.serveAt, c.Cycle)
	}
}

// serve attempts one command for the given request class. Priority order:
//  1. column access for the oldest row-hit request,
//  2. activate for the oldest request to a closed bank,
//  3. precharge for a bank whose oldest request is a row conflict and no
//     queued request still wants the open row.
func (b *Baseline) serve(c *mem.Controller, writes bool) bool {
	return b.pass(c, writes, casKind(writes)) || b.pass(c, writes, probeACT) || b.pass(c, writes, probePRE)
}

// pass probes, oldest first, the class's candidates of one probe kind
// whose bank bound has passed, until one issues. A failed probe means the
// bound was loose, and its bank is re-derived.
func (b *Baseline) pass(c *mem.Controller, writes bool, kind int) bool {
	var last *mem.Request
	for {
		r := b.oldest(c, writes, kind, last)
		if r == nil {
			return false
		}
		if b.probe(c, r, writes, kind) {
			b.issued(c, r.Addr.Rank, r.Addr.Bank, kind)
			return true
		}
		b.touch(c, r.Addr.Rank, r.Addr.Bank)
		last = r
	}
}

// oldest returns the oldest candidate of the class and probe kind younger
// than after, among the banks whose bound has passed.
func (b *Baseline) oldest(c *mem.Controller, writes bool, kind int, after *mem.Request) *mem.Request {
	var best *mem.Request
	set := b.set(kind)
	for k := nextBit(set, 0); k >= 0; k = nextBit(set, k+1) {
		if b.bankAt[k] > c.Cycle {
			continue
		}
		r := b.candidate(c, k, writes, kind)
		if r == nil || after != nil && !mem.Older(after, r) {
			continue
		}
		if best == nil || mem.Older(r, best) {
			best = r
		}
	}
	return best
}

// candidate returns bank k's request of the class that a probe of the
// kind serves: its oldest row hit for a CAS, its oldest request for an ACT
// or PRE (which the bank's kinds make a non-hit), or nil.
func (b *Baseline) candidate(c *mem.Controller, k int, writes bool, kind int) *mem.Request {
	r := c.BankHead(writes, k)
	if r == nil || kind == probeACT || kind == probePRE {
		return r
	}
	return hit(c, r)
}

// probe tries the probe kind's command for r, applying its bookkeeping
// when it issues.
func (b *Baseline) probe(c *mem.Controller, r *mem.Request, writes bool, kind int) bool {
	switch kind {
	case probeACT:
		cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
		if ok, _, _ := c.TryIssue(cmd); !ok {
			return false
		}
		c.RecordFirstCommand(r)
		r.Acted = true
		return true
	case probePRE:
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		ok, _, _ := c.TryIssue(cmd)
		return ok
	}
	return b.issueCAS(c, r, writes)
}

// issued updates the wake after the Baseline's own command of the probe
// kind to a bank. The bank is re-derived. An ACT moves its rank's tRRD
// and tFAW (and its bank group's tRRD_L), so every ACT candidate of the
// rank is re-bounded; a CAS moves its rank's tCCD and tWTR and the data
// bus of every rank, so every CAS candidate is. A PRE moves nothing
// outside its bank. The other bounds can only have tightened.
func (b *Baseline) issued(c *mem.Controller, rank, bank, kind int) {
	b.touch(c, rank, bank)
	switch kind {
	case probeACT:
		set := b.set(probeACT)
		for k := nextBit(set, rank*b.banks); k >= 0 && k < (rank+1)*b.banks; k = nextBit(set, k+1) {
			b.bound(c, rank, k-rank*b.banks)
		}
	case probeRead, probeWrite:
		reads, writes := b.set(probeRead), b.set(probeWrite)
		for w := range reads {
			for m := reads[w] | writes[w]; m != 0; m &= m - 1 {
				k := w<<6 + bits.TrailingZeros64(m)
				b.bound(c, k/b.banks, k%b.banks)
			}
		}
	}
	if b.refreshPending {
		b.refreshAt = min(b.refreshAt, c.Cycle+1)
	}
	b.gen = c.Gen()
}

// touch re-derives a bank's candidate kinds, from its queued requests and
// open row, and its bound.
func (b *Baseline) touch(c *mem.Controller, rank, bank int) {
	k := rank*b.banks + bank
	var kinds uint8
	reads, writes := c.BankHead(false, k), c.BankHead(true, k)
	switch {
	case reads == nil && writes == nil:
	case c.Chan.OpenRow(rank, bank) == dram.ClosedRow:
		kinds = 1 << probeACT
	default:
		if hit(c, reads) != nil {
			kinds |= 1 << probeRead
		}
		if hit(c, writes) != nil {
			kinds |= 1 << probeWrite
		}
		if kinds == 0 {
			kinds = 1 << probePRE
		}
	}
	b.setKinds(k, kinds)
	b.bound(c, rank, bank)
}

// setKinds records bank k's candidate kinds in kinds and the bitsets.
func (b *Baseline) setKinds(k int, kinds uint8) {
	old := b.kinds[k]
	b.kinds[k] = kinds
	for diff := kinds ^ old; diff != 0; diff &= diff - 1 {
		b.byKind[bits.TrailingZeros8(diff)*b.words+k>>6] ^= 1 << (k & 63)
	}
}

// bound recomputes a bank's bound from the channel: for each candidate,
// the latest of its bank-scoped clear cycle and its rank-wide one with the
// data bus searched from now. The data bus may still be busy at the bank
// bound when it is the later; the failed probe then re-derives the bank.
func (b *Baseline) bound(c *mem.Controller, rank, bank int) {
	k := rank*b.banks + bank
	at := int64(never)
	for kinds := b.kinds[k]; kinds != 0; kinds &= kinds - 1 {
		bk, rk := c.Chan.Bounds(dram.Command{Kind: probeCmd[bits.TrailingZeros8(kinds)], Rank: rank, Bank: bank}, c.Cycle)
		at = min(at, max(bk, rk))
	}
	if at > b.bankAt[k] {
		b.dirty = true
	} else {
		b.serveAt = min(b.serveAt, at)
	}
	b.bankAt[k] = at
}

// set returns the bitset of banks with a candidate of the probe kind.
func (b *Baseline) set(kind int) []uint64 { return b.byKind[kind*b.words : (kind+1)*b.words] }

// nextBit returns the first set bit of set at or after i, or -1.
func nextBit(set []uint64, i int) int {
	for w := i >> 6; w < len(set); w++ {
		m := set[w]
		if w == i>>6 {
			m &= ^uint64(0) << (i & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// hit returns the first request from r on in r's bank list that hits
// the bank's open row, or nil.
func hit(c *mem.Controller, r *mem.Request) *mem.Request {
	if r == nil {
		return nil
	}
	open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank)
	for ; r != nil; r = c.BankNext(r) {
		if r.Addr.Row == open {
			return r
		}
	}
	return nil
}

// sync brings the wake up to date: a rebuild after a change it missed,
// then serveAt if a bound rose.
func (b *Baseline) sync(c *mem.Controller) {
	if b.dirty || c.Gen() != b.gen {
		b.resync(c)
	}
}

func (b *Baseline) resync(c *mem.Controller) {
	if c.Gen() != b.gen {
		b.rebuild(c)
	}
	b.serveAt = never
	for w := 0; w < b.words; w++ {
		var m uint64
		for kind := range probeKinds {
			m |= b.byKind[kind*b.words+w]
		}
		for ; m != 0; m &= m - 1 {
			b.serveAt = min(b.serveAt, b.bankAt[w<<6+bits.TrailingZeros64(m)])
		}
	}
	b.dirty = false
}

// rebuild derives the wake from the queues and the channel alone, and has
// the refresh path re-derive its bound on the next tick.
func (b *Baseline) rebuild(c *mem.Controller) {
	clear(b.byKind)
	clear(b.kinds)
	for k := range b.bankAt {
		b.bankAt[k] = never
		if c.BankHead(false, k) != nil || c.BankHead(true, k) != nil {
			b.touch(c, k/b.banks, k%b.banks)
		}
	}
	b.refreshAt = never
	if b.RefreshEnabled {
		b.refreshAt = c.Cycle
	}
	b.gen = c.Gen()
}

// casKind is the probe kind of a CAS for the class.
func casKind(writes bool) int {
	if writes {
		return probeWrite
	}
	return probeRead
}

func (b *Baseline) issueCAS(c *mem.Controller, r *mem.Request, write bool) bool {
	kind := dram.KindRead
	dataStart := c.P.ReadDataStart()
	if write {
		kind = dram.KindWrite
		dataStart = c.P.WriteDataStart()
	}
	cmd := dram.Command{Kind: kind, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Col: r.Addr.Col, Domain: r.Domain}
	if ok, _, _ := c.TryIssue(cmd); !ok {
		return false
	}
	c.RecordFirstCommand(r)
	if !r.Acted {
		c.Dom[r.Domain].RowHits++
	}
	r.DataEnd = c.Cycle + int64(dataStart) + int64(c.P.TBURST)
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
// It leaves in refreshAt the earliest deadline still ahead and the bound of
// a blocked PRE or REF.
func (b *Baseline) tickRefresh(c *mem.Controller) bool {
	b.refreshAt, b.refreshPending = never, false
	for rank := range b.refreshDeadline {
		if c.Cycle < b.refreshDeadline[rank] {
			b.refreshAt = min(b.refreshAt, b.refreshDeadline[rank])
			continue
		}
		b.refreshPending = true
		// Close any open bank first.
		for bank := 0; bank < b.banks; bank++ {
			if c.Chan.OpenRow(rank, bank) != dram.ClosedRow {
				return b.tryRefresh(c, dram.Command{Kind: dram.KindPrecharge, Rank: rank, Bank: bank, Domain: dram.NoDomain})
			}
		}
		if b.tryRefresh(c, dram.Command{Kind: dram.KindRefresh, Rank: rank, Domain: dram.NoDomain}) {
			b.refreshDeadline[rank] += int64(c.P.TREFI)
			return true
		}
		return false
	}
	return false
}

// tryRefresh probes a command of the refresh path, folding the bound of a
// blocked one into refreshAt.
func (b *Baseline) tryRefresh(c *mem.Controller, cmd dram.Command) bool {
	if ok, _, _ := c.TryIssue(cmd); ok {
		return true
	}
	bank, rank := c.Chan.Bounds(cmd, c.Cycle)
	b.refreshAt = min(b.refreshAt, max(bank, rank))
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
