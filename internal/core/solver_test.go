package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
)

// TestSolverPaperValues pins every solver value on both stock parts: the
// minimal slot spacings the paper derives in Sections 3 and 4 for the
// Table 1 timings (DDR3-1600), and the same solvers' answers on DDR4-2400.
func TestSolverPaperValues(t *testing.T) {
	cases := []struct {
		part string
		p    dram.Params
		// table is SolverTable's l per mode, as data/RAS/CAS anchors.
		table map[addr.PartitionKind][3]int
		// rotation is MinLRotation(G, FixedRAS) at G = 2, 3, 4.
		rotation [3]int
		// reordered is ReorderedSlotSpacing at every domain count 1-16.
		reordered int
		// consecutive is SolveConsecutive's intra/inter at N = 1-4.
		consecutive [4][2]int
	}{
		{
			part: "DDR3-1600", p: dram.DDR3_1600(),
			table: map[addr.PartitionKind][3]int{
				addr.PartitionRank: {7, 12, 12},  // §3.1: "the minimum feasible value of l is 7", "we would have arrived at an l = 12"
				addr.PartitionBank: {21, 15, 15}, // §4.2 Eq. 4b: "l >= 21"; "solving these equations gives an l >= 15"
				addr.PartitionNone: {49, 43, 43}, // §4.3: "the best l = 43 cycles"; fixed data is worse
			},
			rotation:    [3]int{22, 15, 15}, // G=3 is the paper's triple alternation
			reordered:   6,                  // §4.2: 6-cycle data slots
			consecutive: [4][2]int{{7, 7}, {21, 7}, {21, 7}, {21, 7}},
		},
		{
			part: "DDR4-2400", p: dram.DDR4_2400(),
			table: map[addr.PartitionKind][3]int{
				addr.PartitionRank: {7, 10, 10},
				addr.PartitionBank: {29, 25, 25},
				addr.PartitionNone: {70, 66, 66},
			},
			rotation:    [3]int{33, 22, 19},
			reordered:   7,
			consecutive: [4][2]int{{7, 7}, {29, 6}, {29, 6}, {29, 6}},
		},
	}
	for _, c := range cases {
		table := SolverTable(c.p)
		for mode, want := range c.table {
			for i, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
				key := fmt.Sprintf("%v/%v", mode, a)
				if got := table[key]; got != want[i] {
					t.Errorf("%s: SolverTable[%s] = %d, want %d", c.part, key, got, want[i])
				}
			}
		}
		for i, g := range []int{2, 3, 4} {
			if got, err := MinLRotation(g, FixedRAS, c.p); err != nil || got != c.rotation[i] {
				t.Errorf("%s: MinLRotation(%d) = %d, %v; want %d", c.part, g, got, err, c.rotation[i])
			}
		}
		for domains := 1; domains <= 16; domains++ {
			if got, err := ReorderedSlotSpacing(c.p, domains); err != nil || got != c.reordered {
				t.Errorf("%s: ReorderedSlotSpacing(%d domains) = %d, %v; want %d", c.part, domains, got, err, c.reordered)
			}
		}
		for i, want := range c.consecutive {
			plan, err := SolveConsecutive(i+1, c.p)
			if err != nil || plan.IntraL != want[0] || plan.InterL != want[1] {
				t.Errorf("%s: SolveConsecutive(%d) = %v, %v; want intra/inter %d/%d", c.part, i+1, plan, err, want[0], want[1])
			}
		}
	}
}

// TestBestAnchor confirms the paper's observation: fixed periodic data wins
// under rank partitioning, fixed periodic RAS under bank and no
// partitioning.
func TestBestAnchor(t *testing.T) {
	p := dram.DDR3_1600()
	a, l, err := BestAnchor(addr.PartitionRank, p)
	if err != nil || a != FixedData || l != 7 {
		t.Errorf("BestAnchor(rank) = %v/%d, %v; want fixed-periodic-data/7", a, l, err)
	}
	a, l, err = BestAnchor(addr.PartitionBank, p)
	if err != nil || l != 15 {
		t.Errorf("BestAnchor(bank) = %v/%d, %v; want l=15", a, l, err)
	}
	a, l, err = BestAnchor(addr.PartitionNone, p)
	if err != nil || l != 43 {
		t.Errorf("BestAnchor(none) = %v/%d, %v; want l=43", a, l, err)
	}
}

// TestFeasibleMonotone: if l is feasible, every larger multiple-free l need
// not be, but the solver's minimum must itself be feasible and l-1 must not.
func TestMinLBoundary(t *testing.T) {
	p := dram.DDR3_1600()
	for _, mode := range []addr.PartitionKind{addr.PartitionRank, addr.PartitionBank, addr.PartitionNone} {
		for _, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
			l, err := MinL(a, mode, p)
			if err != nil {
				t.Fatalf("MinL(%v,%v): %v", a, mode, err)
			}
			if ok, why := Feasible(l, a, mode, p); !ok {
				t.Errorf("MinL(%v,%v)=%d reported feasible but Feasible says %s", a, mode, l, why)
			}
			if ok, _ := Feasible(l-1, a, mode, p); ok {
				t.Errorf("Feasible(%d) holds below MinL(%v,%v)=%d", l-1, a, mode, l)
			}
		}
	}
}

// TestEquation1Inequalities re-derives the paper's Equation 1 directly: for
// rank partitioning with fixed periodic data, l is infeasible exactly when
// some multiple of l equals one of the command-offset differences
// {5, 6, 11, 17} (or the data bus needs more room).
func TestEquation1Inequalities(t *testing.T) {
	p := dram.DDR3_1600()
	forbidden := map[int]bool{5: true, 6: true, 11: true, 17: true}
	for l := p.TBURST + p.TRTRS; l <= 30; l++ {
		bad := false
		for d := 1; d*l <= 17; d++ {
			if forbidden[d*l] {
				bad = true
			}
		}
		got, _ := Feasible(l, FixedData, addr.PartitionRank, p)
		if got == bad {
			t.Errorf("l=%d: Feasible=%v but Equation 1 forbids=%v", l, got, bad)
		}
	}
}

// TestSolverScalesWithTimings: slower parts must never shrink l.
func TestSolverScalesWithTimings(t *testing.T) {
	base := dram.DDR3_1600()
	slow := base
	slow.TWTR += 4
	slow.TCAS += 2
	slow.TCWD += 2
	for _, mode := range []addr.PartitionKind{addr.PartitionRank, addr.PartitionBank, addr.PartitionNone} {
		lb, err := MinL(FixedRAS, mode, base)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := MinL(FixedRAS, mode, slow)
		if err != nil {
			t.Fatal(err)
		}
		if ls < lb {
			t.Errorf("%v: slower timings shrank l: %d -> %d", mode, lb, ls)
		}
	}
}

// TestFeasibleProperty uses randomized timing parameters to check a solver
// invariant: scheduling a concrete all-pairs window at the solver's l
// never violates the same constraints it claims to satisfy (internal
// consistency between MinL and Feasible).
func TestFeasibleProperty(t *testing.T) {
	check := func(dTWTR, dTCAS, dTRRD uint8) bool {
		p := dram.DDR3_1600()
		p.TWTR += int(dTWTR % 8)
		p.TCAS += int(dTCAS % 8)
		p.TRRD += int(dTRRD % 8)
		for _, mode := range []addr.PartitionKind{addr.PartitionRank, addr.PartitionBank, addr.PartitionNone} {
			l, err := MinL(FixedRAS, mode, p)
			if err != nil {
				return false
			}
			if ok, _ := Feasible(l, FixedRAS, mode, p); !ok {
				return false
			}
			if l > p.TBURST {
				if ok, _ := Feasible(l-1, FixedRAS, mode, p); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOffsetsPaperValues pins the command offsets of Section 3 (Figure 1).
func TestOffsetsPaperValues(t *testing.T) {
	p := dram.DDR3_1600()
	o := OffsetsFor(FixedData, p)
	if o.ReadACT != -22 || o.ReadCAS != -11 || o.WriteACT != -16 || o.WriteCAS != -5 {
		t.Errorf("fixed-data offsets = %+v, want ACT/CAS = -22/-11 (rd), -16/-5 (wr)", o)
	}
	if o.MinOffset() != -22 {
		t.Errorf("MinOffset = %d, want -22", o.MinOffset())
	}
	r := OffsetsFor(FixedRAS, p)
	if r.ReadACT != 0 || r.ReadCAS != 11 || r.ReadData != 22 || r.WriteData != 16 {
		t.Errorf("fixed-RAS offsets = %+v", r)
	}
	c := OffsetsFor(FixedCAS, p)
	if c.ReadCAS != 0 || c.ReadACT != -11 || c.ReadData != 11 || c.WriteData != 5 {
		t.Errorf("fixed-CAS offsets = %+v", c)
	}
}
