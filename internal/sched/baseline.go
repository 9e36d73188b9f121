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
	// The wake's summary, which every NextEvent and tick reads; the fields
	// come first to share a cache line. kindAt holds per probe kind the
	// earliest bound of a candidate (bound), the current cycle for a due
	// bank's, except for the kinds in dirty, whose bounds rose since, and
	// serveAt the earliest of them. gen is Controller.Gen after the last
	// change the wake accounts for; a change it missed, or gen set to
	// unsynced, forces a rebuild.
	serveAt int64
	kindAt  [probeKinds]int64
	gen     uint64
	dirty   uint8

	// The drain latch, and the write-drain watermarks as fractions of total
	// write-buffer capacity.
	draining bool
	hi, lo   int

	// Refresh state (per rank), active when RefreshEnabled. refreshAt is a
	// lower bound on the next cycle the refresh path can issue, and
	// refreshPending says a deadline has passed (see tickRefresh).
	RefreshEnabled  bool
	refreshPending  bool
	refreshAt       int64
	refreshDeadline []int64

	banks int // banks per rank

	// The candidates. A candidate is a command FR-FCFS would probe at a
	// bank: a CAS for the bank's oldest row hit of a class, or an ACT
	// (closed bank) or PRE (open bank no queued request hits) for its
	// oldest other request. Per bank (rank*BanksPerRank+bank), kinds holds
	// the probe kinds it has a candidate of, as bits, and byKind the same
	// kinds as one bitset of banks per probe kind, words long. due is the
	// bitset of banks an enqueue gave a new candidate kind: their scopes
	// are not derived, and the next tick probes them.
	kinds  []uint8
	byKind []uint64
	words  int
	due    []uint64

	// The scopes (dram.Scopes). Per bank, bankAt is the clear cycle of the
	// bank's own rules, the earliest over its candidate kinds (a read and a
	// write to an open bank read the same ones). Per rank and probe kind,
	// rankAt is the rank's bound: the clear cycle of its rank-wide rules,
	// and for a CAS the first cycle from there and from the current cycle
	// on which the buses accept it (dram.Channel.BusBound). With DDR4 bank
	// groups, groupAt holds per bank group (rank*BankGroups+group) and
	// probe kind the clear cycle of the group's rules; it is nil without
	// them, where no rule reads a group. A candidate's bound is the latest
	// of the three (bound).
	bankAt   []int64
	rankAt   []int64
	groupAt  []int64
	perGroup int // banks per bank group
}

// Probe kinds: a read or write CAS, an ACT, a PRE. They index the
// candidate bitsets and the scopes.
const (
	probeRead = iota
	probeWrite
	probeACT
	probePRE
	probeKinds
)

// probeCmd is the DRAM command of each probe kind.
var probeCmd = [probeKinds]dram.Kind{dram.KindRead, dram.KindWrite, dram.KindActivate, dram.KindPrecharge}

// casKinds are the probe kinds of a CAS.
const casKinds = 1<<probeRead | 1<<probeWrite

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
		banks:    p.BanksPerRank,
		hi:       total * 3 / 4,
		lo:       total / 4,
		kinds:    make([]uint8, p.TotalBanks()),
		byKind:   make([]uint64, probeKinds*words),
		words:    words,
		due:      make([]uint64, words),
		bankAt:   make([]int64, p.TotalBanks()),
		rankAt:   make([]int64, probeKinds*p.RanksPerChan),
		perGroup: p.BanksPerRank,
		gen:      unsynced,
	}
	if p.BankGroups > 1 {
		b.groupAt = make([]int64, probeKinds*p.BankGroups*p.RanksPerChan)
		b.perGroup = p.BanksPerRank / p.BankGroups
	}
	b.refreshDeadline = make([]int64, p.RanksPerChan)
	for r := range b.refreshDeadline {
		b.refreshDeadline[r] = int64(p.TREFI)
	}
	return b
}

// Name implements mem.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// NextEvent implements mem.Scheduler. It is the earliest candidate bound
// and, with refresh on, the refresh path's bound; it is the current cycle
// while the next tick would move the drain latch, which the dense loop
// updates on every cycle and ObsMetrics reports. The answer stays valid
// across enqueues (Enqueued folds in each new candidate) and across the
// Baseline's own commands (each re-derives the scopes it moves, from the
// channel, so a command an injector dropped or delayed leaves them right).
// A change the Baseline did not make, such as an injector's replay or a
// derate, shows in Controller.Gen and rebuilds the wake from the queues
// and the channel.
func (b *Baseline) NextEvent(c *mem.Controller) int64 {
	if b.stale(c) {
		b.resync(c)
	}
	if pw := c.PendingWrites(); pw >= b.hi && !b.draining || pw <= b.lo && b.draining {
		return c.Cycle
	}
	return max(c.Cycle, min(b.serveAt, b.refreshAt))
}

// Tick issues at most one command according to FR-FCFS priorities. Only
// candidates whose bound has passed are probed.
func (b *Baseline) Tick(c *mem.Controller) {
	if b.stale(c) {
		b.resync(c)
	}
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
		// failed one derives the bank's scopes. A kind the bank loses may
		// have held its kind's earliest bound.
		b.dirty |= kinds &^ want
		b.setKinds(k, want)
		b.due[k>>6] |= 1 << (k & 63)
		for m := want; m != 0; m &= m - 1 {
			kind := bits.TrailingZeros8(m)
			b.kindAt[kind] = min(b.kindAt[kind], c.Cycle)
		}
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
// whose bound has passed, until one issues. A failed probe means the
// bound was loose, and its bank is re-derived.
func (b *Baseline) pass(c *mem.Controller, writes bool, kind int) bool {
	var last *mem.Request
	for {
		r := b.oldest(c, writes, kind, last)
		if r == nil {
			return false
		}
		k := r.Addr.Rank*b.banks + r.Addr.Bank
		if b.probe(c, r, writes, kind) {
			b.issued(c, k, kind)
			return true
		}
		b.touch(c, k, true)
		last = r
	}
}

// oldest returns the oldest candidate of the class and probe kind younger
// than after, among the banks that are due or whose bound has passed.
func (b *Baseline) oldest(c *mem.Controller, writes bool, kind int, after *mem.Request) *mem.Request {
	now := c.Cycle
	if b.kindAt[kind] > now {
		return nil
	}
	var best *mem.Request
	set := b.set(kind)
	for k := nextBit(set, 0); k >= 0; k = nextBit(set, k+1) {
		if b.due[k>>6]&(1<<(k&63)) == 0 && b.bound(k, kind) > now {
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
		if ok, _ := c.Issue(cmd, false); !ok {
			return false
		}
		c.RecordFirstCommand(r)
		r.Acted = true
		return true
	case probePRE:
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		ok, _ := c.Issue(cmd, false)
		return ok
	}
	return b.issueCAS(c, r, writes)
}

// issued updates the wake after the Baseline's own command of the probe
// kind to bank k, re-deriving only the scopes the command moved. The bank
// is re-derived. An ACT moves its rank's and bank group's ACT rules (tRRD,
// tFAW, tRRD_L), and a CAS their CAS rules (tCCD, tWTR and the _L
// timings); one pass at the bank re-derives them for each kind the rank
// has candidates of. A CAS also adds a burst to the data bus, so every
// rank's CAS bounds are searched again (searchBuses), and the passes before
// leave that search to it. No command moves another bank's own rules, and
// the command bus it moves is free again on the next cycle. Banks an
// enqueue made due are derived too, so that they wait for their bounds.
func (b *Baseline) issued(c *mem.Controller, k, kind int) {
	var moved uint8
	switch kind {
	case probeACT:
		moved = 1 << probeACT
	case probeRead, probeWrite:
		moved = casKinds
	}
	cas := moved == casKinds
	done := b.touch(c, k, !cas)
	r := b.rank(k)
	for m := moved &^ done; m != 0; m &= m - 1 {
		if other := bits.TrailingZeros8(m); b.holds(r, other) {
			b.derive(c, k, other, false)
		}
	}
	for w, m := range b.due {
		for ; m != 0; m &= m - 1 {
			b.touch(c, w<<6+bits.TrailingZeros64(m), !cas)
		}
	}
	if cas {
		b.searchBuses(c)
	}
	if b.refreshPending {
		b.refreshAt = min(b.refreshAt, c.Cycle+1)
	}
	b.gen = c.Gen()
}

// touch re-derives bank k's candidate kinds, from its queued requests and
// open row, and the scopes of each (derive), and returns the kinds.
func (b *Baseline) touch(c *mem.Controller, k int, search bool) uint8 {
	rank := b.rank(k)
	bank := k - rank*b.banks
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
	b.dirty |= b.kinds[k] | kinds
	b.setKinds(k, kinds)
	b.due[k>>6] &^= 1 << (k & 63)
	own := int64(never)
	for m := kinds; m != 0; m &= m - 1 {
		own = min(own, b.derive(c, k, bits.TrailingZeros8(m), search))
	}
	b.bankAt[k] = own
	return kinds
}

// derive reads, in one pass of the channel's rules, the scopes of the
// probe kind's command to bank k. It keeps the bank group's and the rank's,
// the latter for a CAS with the buses searched from the current cycle
// unless search is off (a search of every pair follows), and returns the
// bank's own.
func (b *Baseline) derive(c *mem.Controller, k, kind int, search bool) int64 {
	r := b.rank(k)
	s := c.Chan.Scopes(probeCmd[kind], r, k-r*b.banks)
	if b.groupAt != nil {
		b.groupAt[b.group(k)*probeKinds+kind] = s.Group
	}
	i := r*probeKinds + kind
	b.rankAt[i] = s.Rank
	if search && casKinds&(1<<kind) != 0 {
		b.rankAt[i] = c.Chan.BusBound(probeCmd[kind], r, max(s.Rank, c.Cycle))
	}
	b.dirty |= 1 << kind
	return s.Bank
}

// searchBuses searches the buses again after a CAS, whose burst may
// conflict with any rank's, once per rank and CAS kind with candidates.
// Each search starts from the pair's bound: every cycle from the pair's
// rank-wide clear cycle up to it was busy on the data bus when a candidate
// derived it, and still is, since bursts only accrue and the rank's rules
// only move later between rebuilds.
func (b *Baseline) searchBuses(c *mem.Controller) {
	now := c.Cycle
	for kind := probeRead; kind <= probeWrite; kind++ {
		// From each rank's first candidate bank, on to the next rank.
		set := b.set(kind)
		for k := nextBit(set, 0); k >= 0; {
			r := b.rank(k)
			i := r*probeKinds + kind
			b.rankAt[i] = c.Chan.BusBound(probeCmd[kind], r, max(b.rankAt[i], now))
			k = nextBit(set, (r+1)*b.banks)
		}
	}
	b.dirty |= casKinds
}

// bound returns the bound of bank k's candidate of the probe kind: the
// latest clear cycle over its bank's, its bank group's and its rank's
// scopes. It is a lower bound on the first cycle the candidate may issue,
// and, right after the Baseline's own command, the one Channel.Bounds
// gives from that cycle.
func (b *Baseline) bound(k, kind int) int64 {
	at := max(b.bankAt[k], b.rankAt[b.rank(k)*probeKinds+kind])
	if b.groupAt != nil {
		at = max(at, b.groupAt[b.group(k)*probeKinds+kind])
	}
	return at
}

// rank returns bank k's rank.
func (b *Baseline) rank(k int) int { return k / b.banks }

// group returns bank k's bank group, counted across ranks.
func (b *Baseline) group(k int) int { return k / b.perGroup }

// holds reports whether some bank of the rank has a candidate of the
// probe kind.
func (b *Baseline) holds(rank, kind int) bool {
	k := nextBit(b.set(kind), rank*b.banks)
	return k >= 0 && k < (rank+1)*b.banks
}

// setKinds records bank k's candidate kinds in kinds and byKind.
func (b *Baseline) setKinds(k int, kinds uint8) {
	for diff := kinds ^ b.kinds[k]; diff != 0; diff &= diff - 1 {
		b.byKind[bits.TrailingZeros8(diff)*b.words+k>>6] ^= 1 << (k & 63)
	}
	b.kinds[k] = kinds
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

// stale reports whether the wake missed a change or has kinds whose bounds
// rose. It is kept apart from resync so that it inlines.
func (b *Baseline) stale(c *mem.Controller) bool { return b.dirty != 0 || c.Gen() != b.gen }

// resync brings the wake up to date: a rebuild after a change it missed,
// then kindAt for the kinds whose bounds rose, and serveAt.
func (b *Baseline) resync(c *mem.Controller) {
	if c.Gen() != b.gen {
		b.rebuild(c)
	}
	// A bound the clock has reached is as good as the earliest.
	for ; b.dirty != 0; b.dirty &= b.dirty - 1 {
		kind := bits.TrailingZeros8(b.dirty)
		at := int64(never)
		for w, m := range b.set(kind) {
			if m&b.due[w] != 0 {
				at = c.Cycle
			}
			for m &^= b.due[w]; m != 0 && at > c.Cycle; m &= m - 1 {
				at = min(at, b.bound(w<<6+bits.TrailingZeros64(m), kind))
			}
		}
		b.kindAt[kind] = at
	}
	b.serveAt = min(b.kindAt[0], b.kindAt[1], b.kindAt[2], b.kindAt[3])
}

// rebuild derives the wake from the queues and the channel alone, and has
// the refresh path re-derive its bound on the next tick. The scopes of
// banks, groups and ranks without candidates keep their stale values: a
// scope is read only for a candidate that derived it, and re-derived from
// then on whenever the Baseline's own command moves it.
func (b *Baseline) rebuild(c *mem.Controller) {
	clear(b.byKind)
	clear(b.kinds)
	clear(b.due)
	for k := range b.kinds {
		if c.BankHead(false, k) != nil || c.BankHead(true, k) != nil {
			b.touch(c, k, true)
		}
	}
	b.refreshAt = never
	if b.RefreshEnabled {
		b.refreshAt = c.Cycle
	}
	b.dirty = 1<<probeKinds - 1
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
	if ok, _ := c.Issue(cmd, false); !ok {
		return false
	}
	c.RecordFirstCommand(r)
	if !r.Acted {
		c.Dom[r.Domain].RowHits++
	}
	r.DataEnd = c.Cycle + int64(dataStart) + int64(c.P.TBURST)
	if err := c.Remove(r); err != nil {
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
	if ok, _ := c.Issue(cmd, false); ok {
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
