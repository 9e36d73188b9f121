package core

import (
	"fmt"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
)

// ConsecutivePlan is a candidate rank-partitioned pipeline in which every
// thread injects N consecutive transactions per interval (Section 3.1,
// "Improving bandwidth"): the N same-thread transactions are spaced IntraL
// cycles (no rank-to-rank switch needed between them), and InterL separates
// the last transaction of one thread from the first of the next.
type ConsecutivePlan struct {
	N      int
	IntraL int
	InterL int
}

// BlockPeriod returns the cycles one thread's block occupies.
func (c ConsecutivePlan) BlockPeriod() int { return (c.N-1)*c.IntraL + c.InterL }

// AvgSpacing returns the average cycles per transaction — the quantity to
// compare against the N=1 optimum (l=7 at the Table 1 timings).
func (c ConsecutivePlan) AvgSpacing() float64 { return float64(c.BlockPeriod()) / float64(c.N) }

// String formats the plan.
func (c ConsecutivePlan) String() string {
	return fmt.Sprintf("N=%d intra=%d inter=%d avg=%.2f cyc/txn", c.N, c.IntraL, c.InterL, c.AvgSpacing())
}

// consecutiveFeasible checks a (intra, inter) pair under fixed periodic
// data with rank partitioning: a thread's block stays in its rank, worst
// case in one bank group (no tRTRS between its bursts), and other threads'
// blocks are on other ranks. Like the paper's analysis, the R/W order
// inside a block is NOT constrained, so the worst-case type assignment must
// be feasible in both directions.
func consecutiveFeasible(n, intra, inter int, p dram.Params) bool {
	o := OffsetsFor(FixedData, p)
	block := (n-1)*intra + inter
	anchor := func(k int) int {
		return (k/n)*block + (k%n)*intra
	}
	for later := 1; later < 3*n; later++ { // three blocks cover every binding pair
		for earlier := 0; earlier < later; earlier++ {
			s := otherRank
			if later/n == earlier/n {
				s = sameGroup
			}
			gap := anchor(later) - anchor(earlier)
			for _, te := range [2]bool{false, true} {
				for _, tl := range [2]bool{false, true} {
					if pairConflict(&o, &p, gap, te, tl, s, later-earlier == 4) != noConflict {
						return false
					}
				}
			}
		}
	}
	return true
}

// SolveConsecutive finds the minimum-average-spacing (intra, inter) pair
// for N consecutive transactions per thread under rank partitioning. The
// paper reports that for the Table 1 parameters this never beats the N=1
// pipeline ("our analysis shows that for our chosen parameters, this did
// not result in a more efficient pipeline") — the tests pin that result.
func SolveConsecutive(n int, p dram.Params) (ConsecutivePlan, error) {
	if n < 1 {
		return ConsecutivePlan{}, fmt.Errorf("core: N must be >= 1, got %d", n)
	}
	if n == 1 {
		l, err := MinL(FixedData, addr.PartitionRank, p)
		if err != nil {
			return ConsecutivePlan{}, err
		}
		return ConsecutivePlan{N: 1, IntraL: l, InterL: l}, nil
	}
	const maxL = 96
	best := ConsecutivePlan{}
	found := false
	for intra := p.TBURST; intra <= maxL; intra++ {
		for inter := p.TBURST + p.TRTRS; inter <= maxL; inter++ {
			if found && float64((n-1)*intra+inter)/float64(n) >= best.AvgSpacing() {
				continue
			}
			if consecutiveFeasible(n, intra, inter, p) {
				best = ConsecutivePlan{N: n, IntraL: intra, InterL: inter}
				found = true
			}
		}
	}
	if !found {
		return ConsecutivePlan{}, fmt.Errorf("core: no feasible N=%d pipeline up to spacing %d", n, maxL)
	}
	return best, nil
}
