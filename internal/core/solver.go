// Package core implements the paper's contribution: the Fixed Service (FS)
// memory controller family. It contains
//
//   - the constraint solver that generalizes Equations 1-4 — given the DRAM
//     timing parameters, a fixed-periodic anchor (data, RAS, or CAS), and a
//     spatial-partitioning mode, it computes the minimum slot spacing l for
//     which the static command pipeline is provably conflict-free;
//   - the static pipeline construction (slot grids, command offsets, the
//     triple-alternation bank-group rotation, and the reordered
//     bank-partitioned read/write schedule); and
//   - the FS transaction scheduler that shapes every security domain to one
//     transaction per interval, inserting dummy or prefetch operations in
//     unused slots, with the paper's three energy optimizations.
package core

import (
	"fmt"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
)

// Anchor selects which event of a transaction sits on the fixed periodic
// grid (Section 3: "fixed periodic data", "fixed periodic RAS", "fixed
// periodic CAS").
type Anchor int

const (
	// FixedData anchors the start of the data burst at k*l.
	FixedData Anchor = iota
	// FixedRAS anchors the Activate at k*l.
	FixedRAS
	// FixedCAS anchors the column command at k*l.
	FixedCAS
)

// String names the anchor.
func (a Anchor) String() string {
	switch a {
	case FixedData:
		return "fixed-periodic-data"
	case FixedRAS:
		return "fixed-periodic-RAS"
	case FixedCAS:
		return "fixed-periodic-CAS"
	default:
		return fmt.Sprintf("Anchor(%d)", int(a))
	}
}

// Offsets are the command and data times of one transaction relative to
// its slot anchor, for reads and writes.
type Offsets struct {
	ReadACT, ReadCAS, ReadData    int
	WriteACT, WriteCAS, WriteData int
}

// OffsetsFor derives the command offsets for an anchor from the timing
// parameters. For the paper's DDR3-1600 numbers and FixedData these are the
// values in Section 3: ACT at kl-22 / kl-16 and CAS at kl-11 / kl-5 for
// reads / writes.
func OffsetsFor(a Anchor, p dram.Params) Offsets {
	switch a {
	case FixedData:
		return Offsets{
			ReadACT: -p.TCAS - p.TRCD, ReadCAS: -p.TCAS, ReadData: 0,
			WriteACT: -p.TCWD - p.TRCD, WriteCAS: -p.TCWD, WriteData: 0,
		}
	case FixedCAS:
		return Offsets{
			ReadACT: -p.TRCD, ReadCAS: 0, ReadData: p.TCAS,
			WriteACT: -p.TRCD, WriteCAS: 0, WriteData: p.TCWD,
		}
	default: // FixedRAS
		return Offsets{
			ReadACT: 0, ReadCAS: p.TRCD, ReadData: p.TRCD + p.TCAS,
			WriteACT: 0, WriteCAS: p.TRCD, WriteData: p.TRCD + p.TCWD,
		}
	}
}

// act/cas/data pick the offset for a transaction type.
func (o Offsets) act(write bool) int {
	if write {
		return o.WriteACT
	}
	return o.ReadACT
}
func (o Offsets) cas(write bool) int {
	if write {
		return o.WriteCAS
	}
	return o.ReadCAS
}
func (o Offsets) data(write bool) int {
	if write {
		return o.WriteData
	}
	return o.ReadData
}

// MinOffset returns the earliest command offset (used to place the slot
// grid so no command is scheduled before cycle zero).
func (o Offsets) MinOffset() int {
	min := o.ReadACT
	for _, v := range []int{o.ReadCAS, o.WriteACT, o.WriteCAS} {
		if v < min {
			min = v
		}
	}
	return min
}

// solveWindow is how many slot distances d = k-k' the solvers examine.
// Command offsets and timing windows are all far below window*l for any
// feasible l, so 8 covers every binding pair.
const solveWindow = 8

// share is how much of the device two transactions of a static pipeline
// may have in common. A solver passes the set of levels a pair may take
// (the levels OR-ed together), and the pair must be legal at each of them.
type share uint8

const (
	// otherRank: only the command and data buses are shared, and the data
	// bus needs tRTRS between the ranks.
	otherRank share = 1 << iota
	// otherGroup: one rank, another DDR4 bank group (the short timings).
	otherGroup
	// sameGroup: one rank and bank group, another bank.
	sameGroup
	// sameBank: one bank, another row, so the later ACT waits for the
	// earlier transaction's auto-precharge.
	sameBank
)

// constraint names one inequality of the paper's constraint system
// (Equations 1-4), or noConflict.
type constraint uint8

const (
	noConflict constraint = iota
	cmdBus
	dataBus
	tRRD
	tFAW
	tCCD
	tWTR
	rd2wr
	bankRecovery
)

var constraintNames = [...]string{"no conflict", "command bus", "data bus", "tRRD", "tFAW", "tCCD", "tWTR", "Rd2Wr", "bank recovery"}

func (c constraint) String() string { return constraintNames[c] }

// pairConflict is the pipelines' one constraint rule. It returns the first
// constraint two transactions violate when the later one's slot anchor is
// gap cycles after the earlier one's. earlier and later say which of them
// is a write, s holds every level at which they may share the device, and
// fourApart marks a pair with three ACTs between them, where tFAW binds.
func pairConflict(o *Offsets, p *dram.Params, gap int, earlier, later bool, s share, fourApart bool) constraint {
	actE, casE := o.act(earlier), o.cas(earlier)
	actL, casL := gap+o.act(later), gap+o.cas(later)
	// Equation 1: a cycle carries at most one command.
	if actL == actE || actL == casE || casL == actE || casL == casE {
		return cmdBus
	}
	// Bursts must not overlap, in whichever order they land (a later
	// write's short tCWD can put its burst first).
	sep := p.TBURST
	if s&otherRank != 0 {
		sep += p.TRTRS
	}
	if d := gap + o.data(later) - o.data(earlier); d < sep && d > -sep {
		return dataBus
	}
	if s&^otherRank == 0 {
		return noConflict
	}
	// One rank (Equations 2-4). Only another bank group may use DDR4's
	// short timings.
	rrd, ccd, wtr := p.RRDSame(), p.CCDSame(), p.WTRSame()
	if s&(sameGroup|sameBank) == 0 {
		rrd, ccd, wtr = p.RRDOther(), p.CCDOther(), p.WTROther()
	}
	actGap, casGap := actL-actE, casL-casE
	switch {
	case actGap < rrd:
		return tRRD
	case fourApart && actGap < p.TFAW:
		return tFAW
	case casGap < ccd:
		return tCCD
	case earlier && !later && casGap < p.TCWD+p.TBURST+wtr:
		return tWTR
	case !earlier && later && casGap < p.ReadToWriteGap():
		return rd2wr
	case s&sameBank != 0 && actL < o.bankFree(earlier, p):
		return bankRecovery
	}
	return noConflict
}

// bankFree returns, relative to a transaction's slot anchor, the first
// cycle its bank accepts another ACT: tRC after its ACT, and tRP after its
// auto-precharge, which waits for tRAS and for tRTP (read) or write
// recovery (write).
func (o Offsets) bankFree(write bool, p *dram.Params) int {
	pre := o.act(write) + p.TRAS
	if write {
		pre = max(pre, o.data(write)+p.TBURST+p.TWR)
	} else {
		pre = max(pre, o.cas(write)+p.TRTP)
	}
	return max(pre+p.TRP, o.act(write)+p.TRC)
}

// violation is a rejected pair of a uniform slot grid.
type violation struct {
	what           constraint
	d              int
	earlier, later bool
}

func (v violation) String() string {
	return fmt.Sprintf("%v (d=%d, %s then %s)", v.what, v.d, typeName(v.earlier), typeName(v.later))
}

func typeName(write bool) string {
	if write {
		return "W"
	}
	return "R"
}

// gridConflict checks every pair of slots d = 1..solveWindow apart on a
// uniform grid of spacing l. Pairs a multiple of period apart may share
// the device at the levels in aligned, the others at the levels in rest;
// slots four apart are four ACTs apart.
func gridConflict(l int, o *Offsets, p *dram.Params, period int, aligned, rest share) violation {
	for d := 1; d <= solveWindow; d++ {
		s := rest
		if d%period == 0 {
			s = aligned
		}
		for _, earlier := range [2]bool{false, true} {
			for _, later := range [2]bool{false, true} {
				if c := pairConflict(o, p, d*l, earlier, later, s, d == 4); c != noConflict {
					return violation{c, d, earlier, later}
				}
			}
		}
	}
	return violation{}
}

// modeShare is how much of the device two slots may share under a spatial
// partitioning mode: disjoint ranks share only the buses, bank
// partitioning may put two domains in one bank group of one rank, and
// without partitioning they may meet in one bank.
func modeShare(mode addr.PartitionKind) share {
	switch mode {
	case addr.PartitionRank, addr.PartitionChannel:
		return otherRank
	case addr.PartitionNone:
		return otherRank | sameBank
	}
	return otherRank | sameGroup
}

// Feasible reports whether slot spacing l yields a conflict-free pipeline
// for the anchor and partitioning mode, and if not, which constraint fails.
// It checks every (earlier, later) read/write pair of slots up to
// solveWindow apart with pairConflict, at the sharing the mode allows.
func Feasible(l int, a Anchor, mode addr.PartitionKind, p dram.Params) (bool, string) {
	o := OffsetsFor(a, p)
	s := modeShare(mode)
	if v := gridConflict(l, &o, &p, 1, s, s); v.what != noConflict {
		return false, v.String()
	}
	return true, ""
}

// minSpacing is the search MinL, MinLRotation and ReorderedSlotSpacing
// share: the smallest spacing in [lo, hi] that ok accepts.
func minSpacing(lo, hi int, ok func(l int) bool) (int, bool) {
	for l := lo; l <= hi; l++ {
		if ok(l) {
			return l, true
		}
	}
	return 0, false
}

// maxL bounds the grid solvers' search.
const maxL = 512

// MinL computes the smallest feasible slot spacing for the anchor and
// partitioning mode — the paper's l. It returns an error if nothing up to
// maxL works.
func MinL(a Anchor, mode addr.PartitionKind, p dram.Params) (int, error) {
	o := OffsetsFor(a, p)
	s := modeShare(mode)
	// The search starts where a burst fits.
	l, ok := minSpacing(p.TBURST, maxL, func(l int) bool {
		return gridConflict(l, &o, &p, 1, s, s).what == noConflict
	})
	if !ok {
		return 0, fmt.Errorf("core: no feasible l <= %d for %v/%v", maxL, a, mode)
	}
	return l, nil
}

// BestAnchor returns the anchor with the smallest feasible l for the mode,
// resolving the paper's observation that fixed periodic data wins under
// rank partitioning while fixed periodic RAS wins under bank partitioning
// and no partitioning.
func BestAnchor(mode addr.PartitionKind, p dram.Params) (Anchor, int, error) {
	best := Anchor(-1)
	bestL := 0
	for _, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
		l, err := MinL(a, mode, p)
		if err != nil {
			continue
		}
		if best < 0 || l < bestL {
			best, bestL = a, l
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("core: no feasible anchor for %v", mode)
	}
	return best, bestL, nil
}

// SolverTable summarizes minimal l for every anchor/mode combination; the
// cmd/pipeline tool prints it and the tests pin the paper's values.
func SolverTable(p dram.Params) map[string]int {
	out := map[string]int{}
	for _, mode := range []addr.PartitionKind{addr.PartitionRank, addr.PartitionBank, addr.PartitionNone} {
		for _, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
			l, err := MinL(a, mode, p)
			if err != nil {
				l = -1
			}
			out[fmt.Sprintf("%v/%v", mode, a)] = l
		}
	}
	return out
}
