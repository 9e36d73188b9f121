package dram

import (
	"fmt"
	"strings"
	"testing"
)

// drive is one differential run: a part, the derate both implementations
// get before the first command (on rank, or every rank when rank is -1),
// and how commands are drawn and issued.
type drive struct {
	p      Params
	rank   int
	derate Derate
	// boundary issues each drawn command at the first cycle the channel
	// accepts it, instead of at a random cycle.
	boundary bool
	// bursts makes every other draw an ACT to the rank of the last ACT, so
	// five ACTs to one rank at minimum spacing (tFAW) are common.
	bursts bool
}

// run issues a pseudo-random command stream, asking both the incremental
// Channel and the brute-force ReferenceChecker for a verdict on every
// attempt, and fails on the first disagreement. Accepted commands are
// applied to both so their states stay in lockstep.
//
// In boundary mode each drawn command goes to the first cycle after the
// last command at which the channel accepts it, and the reference must
// refuse it one cycle earlier and accept it there: a rule either
// implementation states one cycle short or long moves that boundary. A
// command the channel refuses for its state (NeverReady) is skipped, and
// the reference must refuse it too.
func (d drive) run(t *testing.T, seed uint64, attempts int) (accepted int) {
	t.Helper()
	p := d.p
	ch := NewChannel(p)
	ref := NewReferenceChecker(p)
	ch.SetDerate(d.rank, d.derate)
	ref.SetDerate(d.rank, d.derate)
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	cycle, last, actRank := int64(0), int64(-1), 0
	for i := 0; i < attempts; i++ {
		r := next()
		cmd := Command{
			Kind: Kind((r >> 32) % 7),
			Rank: int(r % uint64(p.RanksPerChan)),
			Bank: int((r >> 8) % uint64(p.BanksPerRank)),
			Row:  int((r >> 16) % 64),
			Col:  int((r >> 24) % uint64(p.ColsPerRow)),
		}
		if d.bursts && r>>63 == 0 {
			cmd.Kind, cmd.Rank = KindActivate, actRank
		}
		if !d.boundary {
			cycle += int64(1 + (r>>40)%8)
		} else {
			// ReadyAt's bounds step to the first cycle the channel accepts
			// cmd, or to NeverReady.
			cycle = last + 1
			for at := ch.ReadyAt(cmd, cycle); at > cycle; at = ch.ReadyAt(cmd, cycle) {
				if at == NeverReady {
					if ref.Check(cmd, cycle) == nil {
						t.Fatalf("attempt %d: the channel refuses %v at %d for its state (%v), the reference accepts it",
							i, cmd, cycle, ch.CanIssue(cmd, cycle))
					}
					break
				}
				cycle = at
			}
			if !ch.Ready(cmd, cycle) {
				continue
			}
			if cycle-1 > last && ref.Check(cmd, cycle-1) == nil {
				t.Fatalf("attempt %d: the channel first accepts %v at %d (%v a cycle before), the reference already at %d",
					i, cmd, cycle, ch.CanIssue(cmd, cycle-1), cycle-1)
			}
		}

		chErr := ch.CanIssue(cmd, cycle)
		refErr := ref.Check(cmd, cycle)
		if (chErr == nil) != (refErr == nil) {
			t.Fatalf("attempt %d: verdicts disagree on %v at %d:\n  channel:   %v\n  reference: %v",
				i, cmd, cycle, chErr, refErr)
		}
		if chErr == nil {
			if err := ch.Issue(cmd, cycle); err != nil {
				t.Fatalf("accepted command failed to apply: %v", err)
			}
			ref.Apply(cmd, cycle)
			accepted++
			last = cycle
			if cmd.Kind == KindActivate {
				actRank = cmd.Rank
			}
		}
	}
	return accepted
}

// differentialDerate lengthens every timing a Derate can but tRC and
// tFAW. tRC cannot bind under it, and TestDifferentialBoundaries gives
// both derates of their own.
var differentialDerate = Derate{TRCD: 2, TRP: 3, TRAS: 1, TRTP: 1, TWR: 4, TRRD: 1, TCCD: 1, TWTR: 2}

// TestDifferentialDDR3 drives random streams through both timing-model
// implementations on DDR3, nominal and derated, and requires bit-identical
// verdicts.
func TestDifferentialDDR3(t *testing.T) {
	for _, d := range []drive{{p: DDR3_1600(), rank: -1}, {p: DDR3_1600(), rank: -1, derate: differentialDerate}} {
		for seed := uint64(1); seed <= 6; seed++ {
			acc := d.run(t, seed, 1500)
			if acc < 100 {
				t.Fatalf("seed %d: only %d commands accepted; stream too adversarial to be meaningful", seed, acc)
			}
		}
	}
}

// TestDifferentialDDR4 repeats the differential check with bank-group
// timings in play.
func TestDifferentialDDR4(t *testing.T) {
	for _, d := range []drive{{p: DDR4_2400(), rank: -1}, {p: DDR4_2400(), rank: -1, derate: differentialDerate}} {
		for seed := uint64(11); seed <= 14; seed++ {
			acc := d.run(t, seed, 1200)
			if acc < 80 {
				t.Fatalf("seed %d: only %d commands accepted", seed, acc)
			}
		}
	}
}

// TestDifferentialBoundaries runs the drive in boundary mode, so each
// command lands on the cycle its binding rule clears: a rule that either
// implementation states a cycle short or long, or a derate term it leaves
// out, shows as a disagreement there. The stock parts run nominal,
// derated on every rank and derated on one rank. Three rules get derates
// of their own on a two-rank part: on both stock parts tRAS + tRP covers
// tRC, and a write's recovery covers tRAS in the auto-precharge start; and
// tFAW gets ACT bursts, as five ACTs at minimum spacing to one rank are
// rare under a uniform draw.
func TestDifferentialBoundaries(t *testing.T) {
	ddr3, ddr4 := DDR3_1600(), DDR4_2400()
	two3, two4 := ddr3, ddr4
	two3.RanksPerChan, two4.RanksPerChan = 2, 2
	cases := []struct {
		name string
		d    drive
	}{
		{"ddr3", drive{p: ddr3, rank: -1}},
		{"ddr3-derated", drive{p: ddr3, rank: -1, derate: differentialDerate}},
		{"ddr3-rank1-derated", drive{p: two3, rank: 1, derate: differentialDerate}},
		{"ddr3-trc-tfaw", drive{p: two3, rank: -1, derate: Derate{TRC: 9, TFAW: 9}, bursts: true}},
		{"ddr3-tras", drive{p: two3, rank: -1, derate: Derate{TRAS: 16}}},
		{"ddr4", drive{p: ddr4, rank: -1}},
		{"ddr4-derated", drive{p: ddr4, rank: -1, derate: differentialDerate}},
		{"ddr4-trc-tfaw", drive{p: two4, rank: -1, derate: Derate{TRC: 9, TFAW: 9}, bursts: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.d.boundary = true
			for seed := uint64(1); seed <= 3; seed++ {
				if acc := tc.d.run(t, seed, 800); acc < 150 {
					t.Fatalf("seed %d: only %d commands accepted", seed, acc)
				}
			}
		})
	}
}

// TestReferenceRefusesMissingTargets: on a fresh channel, a rank outside
// the channel and, for every kind but REF, a bank outside the rank are
// refused by both implementations, the reference naming the target; the
// last rank and bank that exist are accepted by both.
func TestReferenceRefusesMissingTargets(t *testing.T) {
	for _, p := range []Params{DDR3_1600(), DDR4_2400()} {
		lastRank, lastBank := p.RanksPerChan-1, p.BanksPerRank-1
		for _, tc := range []struct {
			cmd  Command
			want string // the reference's reason; empty = accepted
		}{
			{Command{Kind: KindActivate, Rank: 99, Bank: 0}, "targets rank 99 outside"},
			{Command{Kind: KindActivate, Rank: 0, Bank: 99}, "targets bank 99 outside"},
			{Command{Kind: KindRefresh, Rank: -1}, "targets rank -1 outside"},
			{Command{Kind: KindPrecharge, Rank: 0, Bank: -1}, "targets bank -1 outside"},
			{Command{Kind: KindRead, Rank: p.RanksPerChan, Bank: 0}, fmt.Sprintf("targets rank %d outside", p.RanksPerChan)},
			{Command{Kind: KindActivate, Rank: lastRank, Bank: lastBank}, ""},
			{Command{Kind: KindRefresh, Rank: lastRank}, ""},
		} {
			chErr := NewChannel(p).CanIssue(tc.cmd, 5)
			refErr := NewReferenceChecker(p).Check(tc.cmd, 5)
			if (chErr == nil) != (tc.want == "") {
				t.Errorf("%d banks: channel verdict on %v: %v", p.BanksPerRank, tc.cmd, chErr)
			}
			switch {
			case tc.want == "" && refErr != nil:
				t.Errorf("%d banks: reference refuses %v: %v", p.BanksPerRank, tc.cmd, refErr)
			case tc.want != "" && (refErr == nil || !strings.Contains(refErr.Error(), tc.want)):
				t.Errorf("%d banks: reference verdict on %v: %v, want %q", p.BanksPerRank, tc.cmd, refErr, tc.want)
			}
		}
	}
}

// TestDifferentialDenseCycles uses 1-cycle steps so bus-ordering and
// same-cycle hazards dominate.
func TestDifferentialDenseCycles(t *testing.T) {
	p := DDR3_1600()
	ch := NewChannel(p)
	ref := NewReferenceChecker(p)
	cmds := []struct {
		cmd   Command
		cycle int64
	}{
		{Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 1}, 1},
		{Command{Kind: KindActivate, Rank: 0, Bank: 1, Row: 1}, 2},  // tRRD violation
		{Command{Kind: KindActivate, Rank: 1, Bank: 0, Row: 1}, 2},  // other rank: legal
		{Command{Kind: KindRead, Rank: 0, Bank: 0}, 5},              // tRCD violation
		{Command{Kind: KindRead, Rank: 0, Bank: 0}, 12},             // legal
		{Command{Kind: KindRead, Rank: 1, Bank: 0}, 14},             // tRTRS data-bus violation
		{Command{Kind: KindRead, Rank: 1, Bank: 0}, 18},             // legal
		{Command{Kind: KindPrecharge, Rank: 0, Bank: 0}, 20},        // tRAS violation
		{Command{Kind: KindPrecharge, Rank: 0, Bank: 0}, 29},        // legal
		{Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 2}, 35}, // tRP violation
		{Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 2}, 40}, // legal
	}
	for i, c := range cmds {
		chErr := ch.CanIssue(c.cmd, c.cycle)
		refErr := ref.Check(c.cmd, c.cycle)
		if (chErr == nil) != (refErr == nil) {
			t.Fatalf("step %d (%v at %d): channel=%v reference=%v", i, c.cmd, c.cycle, chErr, refErr)
		}
		if chErr == nil {
			if err := ch.Issue(c.cmd, c.cycle); err != nil {
				t.Fatal(err)
			}
			ref.Apply(c.cmd, c.cycle)
		}
	}
}
