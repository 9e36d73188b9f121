package core

import (
	"fmt"

	"fsmem/internal/dram"
)

// Group-rotation solving generalizes the paper's triple alternation: if the
// schedule guarantees that slots d apart target the same bank (group) only
// when d is a multiple of G, then only every G-th pair pays the same-bank
// recovery penalty, and the other pairs pay the cross-group (DDR4 "short")
// timings. Triple alternation is the special case G=3 on DDR3, where the
// short and long timings coincide and the cross-group constraint set is
// the bank-partitioned one.

// MinLRotation computes the smallest slot spacing for a G-way group
// rotation with no spatial partitioning: pairs of slots a multiple of G
// apart may reuse the same bank and need full precharge recovery, and the
// other pairs are bank-group-disjoint (short timings). For DDR3 at G=3 this recovers the paper's triple-alternation l=15; for
// DDR4's native bank groups the short cross-group timings shrink it
// further — a new design point the paper's framework admits.
func MinLRotation(groups int, a Anchor, p dram.Params) (int, error) {
	if groups >= 2 {
		o := OffsetsFor(a, p)
		l, ok := minSpacing(p.TBURST, maxL, func(l int) bool {
			return gridConflict(l, &o, &p, groups, otherRank|sameBank, otherRank|otherGroup).what == noConflict
		})
		if ok {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: no feasible rotation l <= %d for G=%d/%v", maxL, groups, a)
}

// ReorderedSlotSpacing solves the data-slot spacing of the reordered
// bank-partitioned pipeline (§4.2): reads are scheduled before writes on a
// uniform data grid, so only the (R,R), (R then W), and (W,W) orders occur
// inside an interval, plus the write-to-read boundary into the next
// interval. On DDR3-1600 this yields the paper's 6-cycle slots; other
// parts (e.g. DDR4 with its different command offsets) need a different
// spacing, which is why it is solved rather than assumed.
func ReorderedSlotSpacing(p dram.Params, domains int) (int, error) {
	o := OffsetsFor(FixedData, p)
	const maxS = 64
	s, ok := minSpacing(p.TBURST+p.TRTRS, maxS, func(s int) bool { return reorderedFeasible(s, domains, &o, &p) })
	if !ok {
		return 0, fmt.Errorf("core: no feasible reordered slot spacing <= %d", maxS)
	}
	return s, nil
}

// reorderedFeasible checks data-slot spacing s. Bank partitioning can put
// every domain's bank in one rank and bank group, so every pair may share
// the buses or one bank group.
func reorderedFeasible(s, domains int, o *Offsets, p *dram.Params) bool {
	const shared = otherRank | sameGroup
	// Inside an interval reads precede writes: R then R, R then W, W then W.
	inInterval := [...][2]bool{{false, false}, {false, true}, {true, true}}
	for d := 1; d <= solveWindow; d++ {
		for _, ord := range inInterval {
			if pairConflict(o, p, d*s, ord[0], ord[1], shared, d == 4) != noConflict {
				return false
			}
		}
	}
	// Interval boundary: the last write of interval i against the first
	// transactions of interval i+1, at distance Q - (domains-1)*s. The
	// boundary pairs are not checked for tFAW.
	boundary := s + p.WriteToReadGap()
	for d := 0; d < solveWindow && d < domains; d++ {
		if pairConflict(o, p, boundary+d*s, true, false, shared, false) != noConflict ||
			pairConflict(o, p, boundary+d*s, true, true, shared, false) != noConflict {
			return false
		}
	}
	return true
}
