package core

import (
	"fmt"
	"slices"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/mem"
	"fsmem/internal/obs"
	"fsmem/internal/trace"
)

// Variant identifies one Fixed Service design point from the paper.
type Variant int

const (
	// FSRankPart: rank partitioning, fixed periodic data, l=7 (Section 3.1,
	// Figure 1). Q = l * domains.
	FSRankPart Variant = iota
	// FSBankPart: basic bank partitioning, fixed periodic RAS, l=15
	// (Section 4.2). Q = l * domains.
	FSBankPart
	// FSReorderedBank: reordered bank partitioning — reads first, then
	// writes, 6-cycle data slots, one 15-cycle write-to-read turnaround per
	// interval, reads released en masse at interval end (Section 4.2).
	// Q = 6*domains + 15.
	FSReorderedBank
	// FSNoPart: basic no-partitioning pipeline, fixed periodic RAS, l=43
	// (Section 4.3, Figure 2a). Q = l * domains.
	FSNoPart
	// FSNoPartTriple: triple alternation — three Q/3 subintervals with
	// rotating bank groups (bank id mod 3), restoring l=15 without any
	// spatial partitioning (Section 4.3, Figure 2b). Q = 3 * 15 * domains.
	FSNoPartTriple
)

// String names the variant with the paper's abbreviations.
func (v Variant) String() string {
	switch v {
	case FSRankPart:
		return "FS_RP"
	case FSBankPart:
		return "FS_BP"
	case FSReorderedBank:
		return "FS_Reordered_BP"
	case FSNoPart:
		return "FS_NP"
	case FSNoPartTriple:
		return "FS_NP_Optimized"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// PartitionKind returns the spatial partitioning the variant assumes.
func (v Variant) PartitionKind() addr.PartitionKind {
	switch v {
	case FSRankPart:
		return addr.PartitionRank
	case FSBankPart, FSReorderedBank:
		return addr.PartitionBank
	default:
		return addr.PartitionNone
	}
}

// Anchor returns the fixed-periodic anchor the variant uses.
func (v Variant) Anchor() Anchor {
	if v == FSRankPart || v == FSReorderedBank {
		return FixedData
	}
	return FixedRAS
}

// EnergyOpts enables the three energy optimizations of Section 5.2.
type EnergyOpts struct {
	// SuppressDummies elides the DRAM operations of dummy transactions
	// while preserving their timing footprint (optimization 1).
	SuppressDummies bool
	// RowBufferBoost elides the auto-precharge + activate pair when a
	// transaction targets the row most recently accessed in its bank
	// (optimization 2).
	RowBufferBoost bool
	// PowerDown powers a rank down for a whole interval when it has no
	// pending transactions at the interval start (optimization 3).
	PowerDown bool
}

// FSStats are engine-level counters the energy model consumes on top of
// the channel counters.
type FSStats struct {
	RowHitBoosts    int64   // ACT+PRE pairs elided by optimization 2
	PowerDownSlots  int64   // dummy slots replaced by rank power-down
	PowerDownCycles []int64 // per-rank cycles spent powered down (opt. 3)
}

// FS is the Fixed Service transaction scheduler. It implements
// mem.Scheduler: every security domain receives exactly one transaction
// slot per Q-cycle interval, dummy or prefetch operations fill unused
// slots, and the static command grid guarantees zero resource conflicts.
type FS struct {
	p       dram.Params
	variant Variant
	domains int
	spaces  []addr.Space

	l   int
	q   int64
	off Offsets

	anchor0 int64 // anchor of global slot 0 (so no command lands before cycle 0)

	// bankReadyAt[r][b] is the earliest cycle an ACT may target the bank,
	// tracking auto-precharge recovery across intervals. It guards the
	// paper's small-rank-count hazard (Section 7, sensitivity) and the
	// cross-interval write-to-read hazard under reordered bank
	// partitioning.
	bankReadyAt [][]int64
	lastRow     [][]int // most recent row per bank, for RowBufferBoost

	// Rank-level turnaround guards: with few domains the interval shrinks
	// below the write-to-read gap (Q=14 < 15 at 2 domains under FS_RP), and
	// weighted SLAs can give one domain adjacent slots, so a domain's
	// back-to-back transactions to the same rank must be steered apart —
	// exactly the paper's small-rank-count hazard, generalized.
	rankLastReadCAS  []int64
	rankLastWriteCAS []int64
	rankActHist      [][4]int64 // last four ACT cycles per rank (tRRD/tFAW)

	slotDomains []int // slot position within an interval -> domain

	reorderSpacing int64 // solved data-slot spacing for FSReorderedBank

	// Refresh-aware scheduling (rank partitioning): per-rank deadlines are
	// purely time-triggered, a due rank is quiesced (its slots go idle so
	// auto-precharges drain), and the REF is issued on one of the rank's
	// own command-bus cycles — the schedule stays behavior-independent.
	refreshEnabled  bool
	refreshDeadline []int64
	refreshUntil    []int64
	Refreshes       int64

	// Violations counts planned commands the live channel rejected. Always
	// zero on healthy hardware; every increment is also forwarded to the
	// controller's runtime monitor.
	Violations int64

	pending []plannedCmd
	// reads and writes are planReorderedInterval's per-interval scratch,
	// kept so planning an interval does not allocate.
	reads, writes []*mem.Request
	// rngs holds one generator per domain: a domain's dummy-address draws
	// must never perturb another domain's, or the draws themselves would
	// become a cross-domain channel.
	rngs []*trace.RNG

	eopts EnergyOpts
	Stats FSStats

	nextSlot     int64 // next global slot to plan (slot-grid variants)
	nextInterval int64 // next interval to plan (reordered variant)

	// quiescing stops new slot planning so the pipeline can drain for an
	// SLA reconfiguration (§5.1).
	quiescing bool
}

type plannedCmd struct {
	cycle      int64
	cmd        dram.Command
	suppressed bool
	req        *mem.Request // non-nil on the transaction's CAS
	release    int64        // completion cycle for req
}

// Config configures an FS engine.
type Config struct {
	Variant Variant
	Domains int
	Seed    uint64
	Energy  EnergyOpts
	// L overrides the solver's slot spacing (0 = solve).
	L int
	// Weights assigns each domain a number of issue slots per interval
	// (§5.1: "a thread can also be statically assigned multiple issue
	// slots in a Q-cycle interval", driven by the SLA). Nil means one slot
	// per domain. Q grows with the total slot count.
	Weights []int
	// RefreshEnabled interleaves deterministic per-rank refresh windows
	// into the slot grid (rank partitioning only): a rank's own slots are
	// used to quiesce and refresh it, so the schedule stays behavior-
	// independent.
	RefreshEnabled bool
	// StartCycle places the first slot at or after this bus cycle, so a
	// freshly built engine can take over a controller mid-run (the §5.1
	// SLA-change drain-and-swap).
	StartCycle int64
}

// NewFS builds a Fixed Service scheduler. The slot spacing comes from the
// constraint solver unless overridden.
func NewFS(p dram.Params, cfg Config) (*FS, error) {
	if cfg.Domains <= 0 {
		return nil, fmt.Errorf("core: FS needs at least one domain, got %d", cfg.Domains)
	}
	f := &FS{
		p:       p,
		variant: cfg.Variant,
		domains: cfg.Domains,
		eopts:   cfg.Energy,
	}
	f.rngs = make([]*trace.RNG, cfg.Domains)
	for d := range f.rngs {
		f.rngs[d] = trace.NewRNG(cfg.Seed ^ 0xf5a5 ^ uint64(d)*0x9e3779b97f4a7c15)
	}
	if cfg.Weights == nil {
		for d := 0; d < cfg.Domains; d++ {
			f.slotDomains = append(f.slotDomains, d)
		}
	} else {
		if len(cfg.Weights) != cfg.Domains {
			return nil, fmt.Errorf("core: %d weights for %d domains", len(cfg.Weights), cfg.Domains)
		}
		if cfg.Variant == FSReorderedBank {
			return nil, fmt.Errorf("core: weighted slots are not supported under reordered bank partitioning (one transaction per domain per interval by construction)")
		}
		// Round-robin layout: domains with remaining weight are appended in
		// rounds, spreading a domain's slots as far apart as possible.
		remaining := append([]int(nil), cfg.Weights...)
		for {
			any := false
			for d, w := range remaining {
				if w > 0 {
					f.slotDomains = append(f.slotDomains, d)
					remaining[d] = w - 1
					any = true
				}
			}
			if !any {
				break
			}
		}
		if len(f.slotDomains) == 0 {
			return nil, fmt.Errorf("core: weights sum to zero")
		}
	}
	if cfg.RefreshEnabled && cfg.Variant != FSRankPart {
		return nil, fmt.Errorf("core: refresh-aware scheduling is only implemented for rank partitioning")
	}
	f.refreshEnabled = cfg.RefreshEnabled
	if cfg.Variant == FSNoPartTriple && len(f.slotDomains)%3 == 0 {
		// With a slot count divisible by 3 the slot-indexed bank-group
		// rotation assigns every one of a domain's slots the same group
		// forever, cutting it off from two thirds of its address space.
		return nil, fmt.Errorf("core: triple alternation requires a slot count not divisible by 3, got %d", len(f.slotDomains))
	}
	l := cfg.L
	if l == 0 {
		// Triple alternation's whole point is that consecutive slots are
		// bank-disjoint by construction, so it runs at the bank-partitioned
		// spacing (l=15) even though no spatial partitioning is assumed;
		// same-bank reuse only recurs at distance 3 (3*15=45 >= 43 cycles).
		solveMode := f.variant.PartitionKind()
		if f.variant == FSNoPartTriple {
			solveMode = addr.PartitionBank
		}
		var err error
		l, err = MinL(f.variant.Anchor(), solveMode, p)
		if err != nil {
			return nil, err
		}
	}
	f.l = l
	f.off = OffsetsFor(f.variant.Anchor(), p)

	slots := len(f.slotDomains)
	switch f.variant {
	case FSNoPartTriple:
		f.q = int64(3 * l * slots)
	case FSReorderedBank:
		spacing, err := ReorderedSlotSpacing(p, cfg.Domains)
		if err != nil {
			return nil, err
		}
		f.reorderSpacing = int64(spacing)
		f.q = f.reorderSpacing*int64(cfg.Domains) + int64(p.WriteToReadGap())
	default:
		f.q = int64(l * slots)
	}

	f.spaces = make([]addr.Space, cfg.Domains)
	for d := 0; d < cfg.Domains; d++ {
		s, err := addr.SpaceFor(f.variant.PartitionKind(), d, cfg.Domains, p)
		if err != nil {
			return nil, err
		}
		f.spaces[d] = s
	}

	f.rankLastReadCAS = make([]int64, p.RanksPerChan)
	f.rankLastWriteCAS = make([]int64, p.RanksPerChan)
	f.rankActHist = make([][4]int64, p.RanksPerChan)
	for r := range f.rankLastReadCAS {
		f.rankLastReadCAS[r] = dram.NeverCycle
		f.rankLastWriteCAS[r] = dram.NeverCycle
		for i := range f.rankActHist[r] {
			f.rankActHist[r][i] = dram.NeverCycle
		}
	}
	f.bankReadyAt = make([][]int64, p.RanksPerChan)
	f.lastRow = make([][]int, p.RanksPerChan)
	for r := range f.bankReadyAt {
		f.bankReadyAt[r] = make([]int64, p.BanksPerRank)
		f.lastRow[r] = make([]int, p.BanksPerRank)
		for b := range f.lastRow[r] {
			f.lastRow[r][b] = dram.ClosedRow
		}
	}

	if f.variant == FSReorderedBank {
		f.anchor0 = 0
		if cfg.StartCycle > 0 {
			f.nextInterval = (cfg.StartCycle + f.q - 1) / f.q
		}
	} else {
		f.anchor0 = int64(-f.off.MinOffset()) + cfg.StartCycle
	}
	f.Stats.PowerDownCycles = make([]int64, p.RanksPerChan)
	f.refreshDeadline = make([]int64, p.RanksPerChan)
	f.refreshUntil = make([]int64, p.RanksPerChan)
	for r := range f.refreshDeadline {
		// Stagger rank refreshes across the tREFI window like a real
		// controller, so at most one rank is quiesced at a time.
		f.refreshDeadline[r] = cfg.StartCycle + int64(p.TREFI) + int64(r)*int64(p.TREFI)/int64(p.RanksPerChan)
		f.refreshUntil[r] = dram.NeverCycle
	}
	return f, nil
}

// Name implements mem.Scheduler.
func (f *FS) Name() string { return f.variant.String() }

// Idle reports whether the engine has no planned commands outstanding —
// the drain condition before an SLA reconfiguration may swap engines.
func (f *FS) Idle() bool { return len(f.pending) == 0 }

// BeginDrain stops planning new slots. The slot grid keeps advancing
// silently, so already-planned transactions complete and the pipeline
// empties — the CPU-pipeline-drain analogue of §5.1.
func (f *FS) BeginDrain() { f.quiescing = true }

// CancelDrain resumes slot planning after a drain whose follow-up (e.g. an
// SLA reconfiguration) failed: the slot grid kept advancing while
// quiescing, so planning can restart on the same schedule with no gap in
// the static command stream.
func (f *FS) CancelDrain() { f.quiescing = false }

// L returns the slot spacing in use.
func (f *FS) L() int { return f.l }

// Q returns the interval length in bus cycles.
func (f *FS) Q() int64 { return f.q }

// Tick implements mem.Scheduler: plan any slot whose first command is due,
// then issue due planned commands.
func (f *FS) Tick(c *mem.Controller) {
	if f.variant == FSReorderedBank {
		for f.nextInterval*f.q <= c.Cycle {
			f.planReorderedInterval(c, f.nextInterval)
			f.nextInterval++
		}
	} else {
		for f.slotSelectCycle(f.nextSlot) <= c.Cycle {
			f.planSlot(c, f.nextSlot)
			f.nextSlot++
		}
	}

	for len(f.pending) > 0 && f.pending[0].cycle <= c.Cycle {
		pc := f.pending[0]
		// Delete in place: pending holds a few entries, and popping by
		// reslicing would lose the array's front capacity, making
		// insertPending reallocate on nearly every command.
		f.pending = slices.Delete(f.pending, 0, 1)
		f.issue(c, pc)
	}
}

// NextEvent implements mem.EventSource. The FS schedule is static and
// precomputed, so the next tick that can do anything is exactly the earlier
// of the next planning boundary (interval start for reordered BP, slot
// select cycle for the grid variants) and the next planned command's issue
// cycle. Refresh, power-down, and dummy insertion are all folded into
// planning, so they need no horizon of their own.
func (f *FS) NextEvent(c *mem.Controller) int64 {
	var h int64
	if f.variant == FSReorderedBank {
		h = f.nextInterval * f.q
	} else {
		h = f.slotSelectCycle(f.nextSlot)
	}
	if len(f.pending) > 0 && f.pending[0].cycle < h {
		h = f.pending[0].cycle
	}
	if h < c.Cycle {
		h = c.Cycle
	}
	return h
}

func (f *FS) issue(c *mem.Controller, pc plannedCmd) {
	var err error
	if pc.suppressed {
		err = c.IssueSuppressed(pc.cmd)
	} else {
		err = c.Issue(pc.cmd)
	}
	if err != nil {
		// The static pipeline is proven conflict-free; a rejection here
		// means the proof's premises stopped holding (a fault, or a bug).
		// Hiding it would undermine the security argument, so it is
		// reported to the runtime monitor; the transaction still completes
		// so cores are not deadlocked waiting for data.
		f.Violations++
		c.ReportViolation(fsmerr.At(fsmerr.CodeTiming, "core.fs", pc.cycle, pc.cmd, err))
	}
	if pc.req != nil {
		c.CompleteAt(pc.req, pc.release)
	}
}

func (f *FS) insertPending(pc plannedCmd) {
	i := len(f.pending)
	for i > 0 && f.pending[i-1].cycle > pc.cycle {
		i--
	}
	f.pending = append(f.pending, plannedCmd{})
	copy(f.pending[i+1:], f.pending[i:])
	f.pending[i] = pc
}

// slotSelectCycle is when slot s must choose its transaction: the cycle of
// its earliest possible command.
func (f *FS) slotSelectCycle(s int64) int64 {
	return f.anchor0 + s*int64(f.l) + int64(f.off.MinOffset())
}

// slotDomain maps a global slot to its security domain.
func (f *FS) slotDomain(s int64) int {
	return f.slotDomains[int(s%int64(len(f.slotDomains)))]
}

// slotBankGroup returns the allowed bank group (bank mod 3) for the slot
// under triple alternation, or -1 when unrestricted. The rotation is keyed
// to the global slot index (not the domain id or the position within a
// subinterval) so any two slots sharing a group are exactly 3 apart —
// 3l >= the same-bank write-recovery turnaround, for EVERY legal slot
// count. Keying to (position - subinterval) instead collides at distance 2
// across subinterval boundaries when slots % 3 == 1 (e.g. 4 domains: slots
// 3 and 5 both land in group 0, 30 cycles apart < the 43-cycle write
// recovery), which lets one domain's write make another domain's
// transaction ineligible — a timing channel the leakage audit catches.
// For slots % 3 == 2 (the paper's 8 domains) the two keyings are
// identical. A domain's group still advances by (slots mod 3) != 0 every
// turn, so each domain reaches all three groups; slots % 3 == 0 is
// rejected at construction.
func (f *FS) slotBankGroup(s int64) int {
	if f.variant != FSNoPartTriple {
		return -1
	}
	return int(s % 3)
}

// planSlot selects and schedules one transaction for the slot-grid
// variants (FS_RP, FS_BP, FS_NP, FS_NP_Optimized).
func (f *FS) planSlot(c *mem.Controller, s int64) {
	if f.quiescing {
		return
	}
	anchor := f.anchor0 + s*int64(f.l)
	domain := f.slotDomain(s)
	group := f.slotBankGroup(s)

	if f.refreshEnabled && f.planRefresh(c, domain, anchor) {
		return // the slot carried a REF for one of the domain's ranks
	}
	elig := func(a dram.Address, write bool) bool { return f.eligible(a, group, anchor, write) }
	req := f.selectRequest(c, domain, elig)
	if req == nil {
		if f.eopts.PowerDown && f.variant == FSRankPart && f.rankIdle(c, domain) {
			// Optimization 3: the whole interval for this rank set is idle;
			// power down instead of issuing a dummy.
			f.Stats.PowerDownSlots++
			for _, r := range f.spaces[domain].Ranks {
				f.Stats.PowerDownCycles[r] += f.q - int64(f.p.TXP)
			}
			c.Dom[domain].Dummies++ // the slot is still consumed
			c.Obs.DummySlot(domain, anchor, obs.SlotPowerDown)
			return
		}
		req = f.dummyRequest(c, domain, group, elig)
		if req == nil {
			// No safe bank this slot (transient hazard): skip silently; the
			// slot grid is unchanged so nothing is revealed.
			c.Dom[domain].Dummies++
			c.Obs.DummySlot(domain, anchor, obs.SlotSkip)
			return
		}
		c.Obs.DummySlot(domain, anchor, obs.SlotDummy)
	}
	f.scheduleTransaction(c, req, anchor, 0, anchor)
}

// planRefresh issues a due refresh for one of the domain's ranks on this
// slot's first command cycle, if the rank has fully quiesced. It returns
// true when the slot was consumed by the REF.
func (f *FS) planRefresh(c *mem.Controller, domain int, anchor int64) bool {
	refCycle := anchor + int64(f.off.ReadACT)
	for _, r := range f.spaces[domain].Ranks {
		if refCycle < f.refreshDeadline[r] {
			continue
		}
		ready := true
		for b := range f.bankReadyAt[r] {
			if f.bankReadyAt[r][b] > refCycle {
				ready = false
				break
			}
		}
		if !ready {
			continue // still draining; the slot stays idle via eligibility
		}
		f.insertPending(plannedCmd{
			cycle: refCycle,
			cmd:   dram.Command{Kind: dram.KindRefresh, Rank: r, Domain: dram.NoDomain},
		})
		f.refreshUntil[r] = refCycle + int64(f.p.TRFC)
		f.refreshDeadline[r] += int64(f.p.TREFI)
		for b := range f.bankReadyAt[r] {
			f.bankReadyAt[r][b] = f.refreshUntil[r]
		}
		f.Refreshes++
		c.Dom[domain].Dummies++ // the slot is consumed without a transaction
		c.Obs.DummySlot(domain, refCycle, obs.SlotRefresh)
		return true
	}
	return false
}

// rankIdle reports whether the domain has no queued work (power-down test).
func (f *FS) rankIdle(c *mem.Controller, domain int) bool {
	return len(c.ReadQ[domain]) == 0 && len(c.WriteQ[domain]) == 0
}

// selectRequest picks the domain's transaction for a slot: demand reads
// first (writes when the write buffer is filling), then prefetches. The
// elig predicate decides whether a candidate may occupy the slot; the
// slot-grid variants check the full guard set at the slot anchor, while the
// reordered variant uses a mix-independent variant (eligibleReordered) so
// the verdict cannot leak other domains' read/write composition.
func (f *FS) selectRequest(c *mem.Controller, domain int, elig func(a dram.Address, write bool) bool) *mem.Request {
	preferWrites := len(c.WriteQ[domain]) >= c.Cfg.WriteCap*3/4
	qs := [][]*mem.Request{c.ReadQ[domain], c.WriteQ[domain]}
	if preferWrites {
		qs[0], qs[1] = qs[1], qs[0]
	}
	for _, q := range qs {
		for _, r := range q {
			if elig(r.Addr, r.Write) {
				var err error
				if r.Write {
					err = c.RemoveWrite(r)
				} else {
					err = c.RemoveRead(r)
				}
				if err != nil {
					c.ReportViolation(err)
					continue
				}
				return r
			}
		}
	}
	// Prefetch into the otherwise-dummy slot.
	if a, ok := c.NextPrefetch(domain); ok && f.spaces[domain].Contains(a.Rank, a.Bank) && elig(a, false) {
		return c.NewRequest(mem.Request{Domain: domain, Addr: a, Arrive: c.Cycle, Prefetch: true})
	}
	return nil
}

// eligible checks bank-group membership, precharge recovery at the planned
// ACT cycle, and the rank guards (rankClear). Under the solved pipelines
// these guards never bind across domains; they only steer a domain's own
// back-to-back transactions when the interval is shorter than a turnaround
// (small domain counts).
func (f *FS) eligible(a dram.Address, group int, anchor int64, write bool) bool {
	if group >= 0 && a.Bank%3 != group {
		return false
	}
	actCycle := anchor + int64(f.off.act(write))
	if f.refreshEnabled {
		// A rank past its refresh deadline is quiescing: no new activity
		// until its REF has issued and completed.
		if actCycle >= f.refreshDeadline[a.Rank] || actCycle < f.refreshUntil[a.Rank] {
			return false
		}
	}
	return actCycle >= f.bankReadyAt[a.Rank][a.Bank] && f.rankClear(a.Rank, anchor, write)
}

// eligibleReordered is the reordered-pipeline eligibility check. Its verdict
// must be a function of the domain's own state only: a transaction's actual
// slot follows the global read/write mix, so any guard whose outcome shifts
// with the slot anchor would couple the domains. The bank-recovery guard —
// the only one that legitimately binds on the solved grid (Q can be shorter
// than a same-bank turnaround) — is therefore evaluated at the fixed
// interval-start anchor, against recovery times that scheduleTransaction
// records at the worst-case last slot (see bankAnchor there): both sides are
// mix-independent, and ready-at-slot-0 implies ready at any later slot. The
// rank guards are evaluated at the exact slot anchor, where the
// ReorderedSlotSpacing solver proves they never bind; they stay as
// defense-in-depth, feeding the runtime monitor if the proof's premises
// break.
func (f *FS) eligibleReordered(a dram.Address, checkAnchor, exactAnchor int64, write bool) bool {
	return checkAnchor+int64(f.off.act(write)) >= f.bankReadyAt[a.Rank][a.Bank] &&
		f.rankClear(a.Rank, exactAnchor, write)
}

// rankClear checks the rank guards of a transaction at the slot anchor:
// tRRD and tFAW at its ACT, and the read/write turnarounds at its CAS.
func (f *FS) rankClear(rank int, anchor int64, write bool) bool {
	actCycle := anchor + int64(f.off.act(write))
	hist := &f.rankActHist[rank]
	if actCycle < hist[0]+int64(f.p.TRRD) {
		return false
	}
	if oldest := hist[3]; oldest != dram.NeverCycle && actCycle < oldest+int64(f.p.TFAW) {
		return false
	}
	casCycle := anchor + int64(f.off.cas(write))
	if write {
		return casCycle >= f.rankLastReadCAS[rank]+int64(f.p.ReadToWriteGap())
	}
	return casCycle >= f.rankLastWriteCAS[rank]+int64(f.p.WriteToReadGap())
}

// dummyRequest fabricates a dummy read to a recovered bank in the domain's
// partition ("a read request to a random address within the rank [whose]
// returned value is simply discarded").
func (f *FS) dummyRequest(c *mem.Controller, domain, group int, elig func(a dram.Address, write bool) bool) *mem.Request {
	space := f.spaces[domain]
	rng := f.rngs[domain]
	rank := space.Ranks[rng.Intn(len(space.Ranks))]
	start := rng.Intn(len(space.Banks))
	for i := 0; i < len(space.Ranks)*len(space.Banks); i++ {
		rank = space.Ranks[(i/len(space.Banks))%len(space.Ranks)]
		bank := space.Banks[(start+i)%len(space.Banks)]
		if group >= 0 && bank%3 != group {
			continue
		}
		if !elig(dram.Address{Rank: rank, Bank: bank}, false) {
			continue
		}
		return c.NewRequest(mem.Request{
			Domain: domain,
			Addr:   dram.Address{Rank: rank, Bank: bank, Row: rng.Intn(f.p.RowsPerBank), Col: rng.Intn(f.p.ColsPerRow)},
			Arrive: c.Cycle,
			Dummy:  true,
		})
	}
	return nil
}

// scheduleTransaction plans the ACT and CAS(+AP) of one transaction whose
// slot anchor is given; releaseAt overrides the completion cycle (0 = data
// end), used for en-masse release under reordered bank partitioning.
// bankAnchor is the anchor used to record the bank's precharge recovery: the
// slot-grid variants pass the slot anchor itself, while the reordered
// variant passes the interval's worst-case last slot so the recorded
// recovery time does not encode the transaction's mix-dependent slot
// position (see eligibleReordered).
func (f *FS) scheduleTransaction(c *mem.Controller, req *mem.Request, anchor, releaseAt, bankAnchor int64) {
	w := req.Write
	actCycle := anchor + int64(f.off.act(w))
	casCycle := anchor + int64(f.off.cas(w))
	dataEnd := anchor + int64(f.off.data(w)) + int64(f.p.TBURST)

	a := req.Addr
	suppress := req.Dummy && f.eopts.SuppressDummies
	boost := false
	if f.eopts.RowBufferBoost && !req.Dummy && f.lastRow[a.Rank][a.Bank] == a.Row {
		// Optimization 2: the row is still physically intact; the ACT and
		// the auto-precharge can be elided while timing state advances.
		boost = true
		f.Stats.RowHitBoosts++
		c.Dom[req.Domain].RowHitBoosts++
	}

	casKind := dram.KindReadAP
	if w {
		casKind = dram.KindWriteAP
	}

	f.insertPending(plannedCmd{
		cycle:      actCycle,
		cmd:        dram.Command{Kind: dram.KindActivate, Rank: a.Rank, Bank: a.Bank, Row: a.Row, Domain: req.Domain},
		suppressed: suppress || boost,
	})
	release := dataEnd
	if releaseAt > 0 {
		release = releaseAt
	}
	req.FirstCmd = actCycle
	req.DataEnd = dataEnd
	f.insertPending(plannedCmd{
		cycle:      casCycle,
		cmd:        dram.Command{Kind: casKind, Rank: a.Rank, Bank: a.Bank, Col: a.Col, Domain: req.Domain},
		suppressed: suppress,
		req:        req,
		release:    release,
	})

	// Track precharge recovery for the hazard guard, anchored at bankAnchor
	// (>= anchor, so the recorded recovery is never optimistic).
	f.bankReadyAt[a.Rank][a.Bank] = bankAnchor + int64(f.off.bankFree(w, &f.p))
	f.lastRow[a.Rank][a.Bank] = a.Row
	hist := &f.rankActHist[a.Rank]
	copy(hist[1:], hist[:3])
	hist[0] = actCycle
	if w {
		if casCycle > f.rankLastWriteCAS[a.Rank] {
			f.rankLastWriteCAS[a.Rank] = casCycle
		}
	} else if casCycle > f.rankLastReadCAS[a.Rank] {
		f.rankLastReadCAS[a.Rank] = casCycle
	}
}

// planReorderedInterval plans one full interval of the reordered
// bank-partitioned pipeline: every domain contributes one transaction at
// the interval start; reads are scheduled before writes on a 6-cycle data
// grid, and read results are released together at the interval end.
func (f *FS) planReorderedInterval(c *mem.Controller, interval int64) {
	if f.quiescing {
		return
	}
	base := interval * f.q
	slotSpacing := f.reorderSpacing        // solved data-slot spacing (6 on DDR3)
	dataLead := int64(f.p.TRCD + f.p.TCAS) // first read ACT lands at base

	// Collect one transaction (or dummy) per domain. The eligibility verdict
	// must not depend on which slot the candidate lands in — slot positions
	// follow the global read/write mix, so a slot-anchored guard would couple
	// the domains. eligibleReordered checks the bank guard at the fixed
	// interval-start anchor and the (never-binding) rank guards at the
	// candidate's exact grid position: a read's slot is the number of reads
	// selected before it (final — later selections only append after it), a
	// write's is its earliest possible slot (later reads only push writes
	// later, which relaxes the minimum-gap guards).
	checkAnchor := base + dataLead
	lastAnchor := base + dataLead + int64(f.domains-1)*slotSpacing
	reads, writes := f.reads[:0], f.writes[:0]
	for d := 0; d < f.domains; d++ {
		readAnchor := base + dataLead + int64(len(reads))*slotSpacing
		writeAnchor := base + dataLead + int64(len(reads)+len(writes))*slotSpacing
		elig := func(a dram.Address, write bool) bool {
			exact := readAnchor
			if write {
				exact = writeAnchor
			}
			return f.eligibleReordered(a, checkAnchor, exact, write)
		}
		req := f.selectRequest(c, d, elig)
		if req == nil {
			req = f.dummyRequest(c, d, -1, elig)
			if req == nil {
				c.Dom[d].Dummies++
				c.Obs.DummySlot(d, checkAnchor, obs.SlotSkip)
				continue
			}
			c.Obs.DummySlot(d, checkAnchor, obs.SlotDummy)
		}
		if req.Write {
			writes = append(writes, req)
		} else {
			reads = append(reads, req)
		}
	}
	f.reads, f.writes = reads, writes

	// En-masse release cycle: after the last possible data transfer.
	releaseReads := base + dataLead + slotSpacing*int64(f.domains-1) + int64(f.p.TBURST)

	slot := int64(0)
	for _, r := range reads {
		anchor := base + dataLead + slot*slotSpacing
		f.scheduleTransaction(c, r, anchor, releaseReads, lastAnchor)
		slot++
	}
	for _, w := range writes {
		anchor := base + dataLead + slot*slotSpacing
		f.scheduleTransaction(c, w, anchor, 0, lastAnchor)
		slot++
	}
}

// ObsMetrics contributes the scheduler's static grid parameters and
// energy-optimization tallies to an observability snapshot (structurally
// satisfies obs.MetricSource).
func (f *FS) ObsMetrics(emit func(name string, value float64)) {
	emit("slot_width", float64(f.l))
	emit("interval", float64(f.q))
	emit("domains", float64(f.domains))
	emit("refreshes", float64(f.Refreshes))
	emit("row_hit_boosts", float64(f.Stats.RowHitBoosts))
	emit("power_down_slots", float64(f.Stats.PowerDownSlots))
	var pd int64
	for _, c := range f.Stats.PowerDownCycles {
		pd += c
	}
	emit("power_down_cycles", float64(pd))
}
