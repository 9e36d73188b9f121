package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"fsmem/internal/dram"
)

// The pair rule (pairConflict) is the solvers' analytic encoding of the
// paper's Equations 1-4. These tests check it against dram.Channel, the
// cycle-level model the simulator runs: each transaction becomes an ACT
// and an auto-precharge CAS at its slot offsets, fed to a fresh channel.

// oracleTxn is one transaction of a probe stream.
type oracleTxn struct {
	write           bool
	anchor          int
	rank, bank, row int
}

// channelAccepts plays the transactions through a fresh channel in cycle
// order, shifted so the first command lands on cycle 1, and reports
// whether the channel accepts every command.
func channelAccepts(p dram.Params, o Offsets, txns []oracleTxn) bool {
	type timed struct {
		cycle int
		cmd   dram.Command
	}
	var cmds []timed
	for _, t := range txns {
		cas := dram.KindReadAP
		if t.write {
			cas = dram.KindWriteAP
		}
		cmds = append(cmds,
			timed{t.anchor + o.act(t.write), dram.Command{Kind: dram.KindActivate, Rank: t.rank, Bank: t.bank, Row: t.row}},
			timed{t.anchor + o.cas(t.write), dram.Command{Kind: cas, Rank: t.rank, Bank: t.bank}})
	}
	sort.SliceStable(cmds, func(i, j int) bool { return cmds[i].cycle < cmds[j].cycle })
	shift := 1 - cmds[0].cycle
	ch := dram.NewChannel(p)
	for _, c := range cmds {
		if ch.Issue(c.cmd, int64(c.cycle+shift)) != nil {
			return false
		}
	}
	return true
}

// levels are the four share levels, and placeAt puts the later
// transaction of a pair at each of them when the earlier one is on rank 0,
// bank 0, row 0: rank 1, the first bank of another bank group (bank 1 on
// DDR3), bank 1, or bank 0 with another row.
var levels = [4]share{otherRank, otherGroup, sameGroup, sameBank}

func placeAt(p dram.Params) [4]oracleTxn {
	otherGroupBank := 1
	if p.BankGroups > 1 {
		otherGroupBank = p.BanksPerRank / p.BankGroups
	}
	return [4]oracleTxn{{rank: 1}, {bank: otherGroupBank}, {bank: 1}, {row: 1}}
}

// probe describes one stream and the rule's verdict on it.
type probe struct {
	anchor         Anchor
	five           bool  // five same-type transactions rather than a pair
	s              share // the pair's share level
	gap            int   // slot gap between the pair, or the five's spacing
	earlier, later bool
	rule           constraint
}

func (pr probe) String() string {
	if pr.five {
		return fmt.Sprintf("%v, five %s to banks 0-4 at spacing %d: rule says %v",
			pr.anchor, typeName(pr.later), pr.gap, pr.rule)
	}
	return fmt.Sprintf("%v, share %#x, gap %d, %s then %s: rule says %v",
		pr.anchor, pr.s, pr.gap, typeName(pr.earlier), typeName(pr.later), pr.rule)
}

// comparePairs plays every two-transaction stream — three anchors, slot
// gaps 1-150, four read/write orders, four share levels — and calls check
// with the rule's verdict and whether the channel accepts the stream.
func comparePairs(p dram.Params, check func(pr probe, channel bool)) int {
	n := 0
	for _, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
		o := OffsetsFor(a, p)
		for i, at := range placeAt(p) {
			for gap := 1; gap <= 150; gap++ {
				for _, earlier := range []bool{false, true} {
					for _, later := range []bool{false, true} {
						c := pairConflict(&o, &p, gap, earlier, later, levels[i], false)
						at.write, at.anchor = later, gap
						ch := channelAccepts(p, o, []oracleTxn{{write: earlier}, at})
						check(probe{anchor: a, s: levels[i], gap: gap, earlier: earlier, later: later, rule: c}, ch)
						n++
					}
				}
			}
		}
	}
	return n
}

// compareFAW plays five same-type transactions to banks 0-4 of one rank at
// slot spacing 1-60, the streams where tFAW can bind, and calls check with
// the rule's verdict over every pair (distance 1-4) and the channel's.
func compareFAW(p dram.Params, check func(pr probe, channel bool)) int {
	n := 0
	for _, a := range []Anchor{FixedData, FixedRAS, FixedCAS} {
		o := OffsetsFor(a, p)
		for _, write := range []bool{false, true} {
			for spacing := 1; spacing <= 60; spacing++ {
				txns := make([]oracleTxn, 5)
				rule := noConflict
				for j := range txns {
					txns[j] = oracleTxn{write: write, anchor: j * spacing, bank: j}
					for i := 0; i < j && rule == noConflict; i++ {
						s := otherGroup
						if p.BankGroup(i) == p.BankGroup(j) {
							s = sameGroup
						}
						rule = pairConflict(&o, &p, (j-i)*spacing, write, write, s, j-i == 4)
					}
				}
				check(probe{anchor: a, five: true, gap: spacing, earlier: write, later: write, rule: rule}, channelAccepts(p, o, txns))
				n++
			}
		}
	}
	return n
}

// TestPairRuleMatchesChannel: on the stock parts the rule and the channel
// give the same verdict on every two-transaction stream and on every
// five-ACT stream.
func TestPairRuleMatchesChannel(t *testing.T) {
	for _, part := range []struct {
		name string
		p    dram.Params
	}{{"DDR3-1600", dram.DDR3_1600()}, {"DDR4-2400", dram.DDR4_2400()}} {
		bad := 0
		check := func(pr probe, channel bool) {
			if (pr.rule == noConflict) != channel {
				bad++
				if bad <= 10 {
					t.Errorf("%s: %v, but the channel accepts=%v", part.name, pr, channel)
				}
			}
		}
		n := comparePairs(part.p, check) + compareFAW(part.p, check)
		if bad > 0 {
			t.Errorf("%s: %d of %d streams disagree", part.name, bad, n)
		}
	}
}

// randomParams draws a valid timing set: every stock timing moved by up to
// 4 cycles, tRTRS 0-3, and random short bank-group timings.
func randomParams(rng *rand.Rand) dram.Params {
	for {
		p := dram.DDR3_1600()
		if rng.IntN(2) == 1 {
			p = dram.DDR4_2400()
		} else {
			p.BankGroups = []int{0, 2, 4}[rng.IntN(3)]
		}
		for _, f := range []*int{&p.TRC, &p.TRCD, &p.TRAS, &p.TRP, &p.TRTP, &p.TWR, &p.TFAW,
			&p.TRRD, &p.TCCD, &p.TWTR, &p.TCAS, &p.TCWD, &p.TBURST} {
			*f = max(1, *f+rng.IntN(9)-4)
		}
		p.TRTRS = rng.IntN(4)
		p.TRRDS = 1 + rng.IntN(p.TRRD)
		p.TCCDS = 1 + rng.IntN(p.TCCD)
		p.TWTRS = 1 + rng.IntN(p.TWTR)
		if p.Validate() == nil {
			return p
		}
	}
}

// TestPairRuleSoundOnRandomTimings: on random timings the rule may be
// stricter than the channel (it rejects a later slot whose ACT or data
// burst lands first), but it must never accept a stream the channel
// rejects.
func TestPairRuleSoundOnRandomTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("random-timing oracle sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewPCG(19, 1043))
	n, stricter := 0, 0
	for set := 0; set < 50; set++ {
		p := randomParams(rng)
		check := func(pr probe, channel bool) {
			switch {
			case pr.rule == noConflict && !channel:
				t.Fatalf("timing set %d %+v: %v, but the channel rejects the stream", set, p, pr)
			case pr.rule != noConflict && channel:
				stricter++
			}
		}
		n += comparePairs(p, check) + compareFAW(p, check)
	}
	t.Logf("%d streams over 50 timing sets; the rule is stricter on %d", n, stricter)
}
