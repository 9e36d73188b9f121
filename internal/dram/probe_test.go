package dram

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestReadyIgnoresRowColDomain pins the two invariants the Baseline
// scheduler's probe memo relies on. Whether a command may issue depends
// only on its kind, rank, bank and the cycle, never on its row, column or
// domain. And a probe rejected on a rank-wide constraint (errRankBusy)
// speaks for every bank of its rank: the same kind to any of them is not
// legal on any cycle from the probe up to the bound. A random legal
// command stream (every kind, DDR3 and DDR4, with and without a derate)
// walks the channel through varied states; at each step every kind is
// probed on a random target with several row, column and domain variants,
// which must all get the same verdict, and a rank-wide rejection is
// checked on every bank of the rank.
func TestReadyIgnoresRowColDomain(t *testing.T) {
	ddr4 := DDR4_2400()
	ddr4.RanksPerChan = 2
	cases := []struct {
		name   string
		p      Params
		derate bool
	}{
		{"ddr3", DDR3_1600(), false},
		{"ddr3-derated", DDR3_1600(), true},
		{"ddr4", ddr4, false},
	}
	kinds := []Kind{KindActivate, KindRead, KindReadAP, KindWrite, KindWriteAP,
		KindPrecharge, KindRefresh, KindPowerDown, KindPowerUp}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			rng := rand.New(rand.NewPCG(7, uint64(len(tc.name))))
			ch := NewChannel(p)
			if tc.derate {
				ch.SetDerate(0, Derate{TRCD: 2, TRP: 3, TWR: 4, TCCD: 1, TWTR: 2})
			}
			randomCmd := func(k Kind) Command {
				return Command{
					Kind:   k,
					Rank:   rng.IntN(p.RanksPerChan),
					Bank:   rng.IntN(p.BanksPerRank),
					Row:    rng.IntN(8),
					Col:    rng.IntN(p.ColsPerRow),
					Domain: rng.IntN(9) - 1,
				}
			}
			// The forward scan after a rank-wide rejection stops after
			// window cycles, which covers every bound but tRFC's and
			// NeverReady.
			const window = 64
			cycle := int64(0)
			accepted, ready, rankWide := 0, 0, 0
			for step := 0; step < 20000; step++ {
				cycle += int64(1 + rng.IntN(6))
				for _, k := range kinds {
					probe := randomCmd(k)
					want := ch.Ready(probe, cycle)
					if want {
						ready++
					}
					for v := 0; v < 4; v++ {
						alt := probe
						alt.Row, alt.Col, alt.Domain = rng.IntN(1<<16), rng.IntN(p.ColsPerRow), rng.IntN(9)-1
						if got := ch.Ready(alt, cycle); got != want {
							t.Fatalf("step %d cycle %d: Ready(%v) = %v but Ready(%v) = %v; only row/col/domain differ",
								step, cycle, probe, want, alt, got)
						}
					}
					at, err := ch.canIssue(probe, cycle, false)
					if err != errRankBusy {
						continue
					}
					rankWide++
					for b := 0; b < p.BanksPerRank; b++ {
						alt := probe
						alt.Bank = b
						for c := cycle; c < min(at, cycle+window); c++ {
							if ch.Ready(alt, c) {
								t.Fatalf("step %d cycle %d: %v rejected rank-wide until %d (%v), but %v is legal at %d",
									step, cycle, probe, at, ch.CanIssue(probe, cycle), alt, c)
							}
						}
					}
				}
				// Advance the state with one random command, weighted towards
				// the bank commands so rows open and close often; refresh and
				// power management are rarer but present.
				k := kinds[rng.IntN(6)]
				if rng.IntN(40) == 0 {
					k = kinds[6+rng.IntN(3)]
				}
				if cmd := randomCmd(k); ch.Ready(cmd, cycle) {
					if err := ch.Issue(cmd, cycle); err != nil {
						t.Fatalf("ready command refused: %v", err)
					}
					accepted++
				}
			}
			if accepted < 1000 || ready < 1000 || rankWide < 1000 {
				t.Fatalf("stream too quiet: %d commands applied, %d ready probes, %d rank-wide rejections",
					accepted, ready, rankWide)
			}
		})
	}
}

// TestReadyAtIsALowerBound pins the bound the Baseline and TP wakes are
// built on, with a forward scan of Ready as the oracle. A random legal
// command stream (DDR3 and DDR4, with and without a derate) walks the
// channel through varied states; at each step every kind is probed on a
// random target, sometimes on the cycle a command just issued. For every
// probe, ReadyAt is at most the probe cycle exactly when Ready holds, Ready
// is false on every cycle from the probe up to a finite bound, and after
// NeverReady it stays false for longer than any timing constraint lasts.
// The explained rejection (CanIssue) carries the same bound. A twin
// channel takes the same command stream through the single-pass TryIssue
// instead of Ready and IssueEx: after every step it must have reached the
// same verdict, bound and scope and hold the same Gen and Counters.
func TestReadyAtIsALowerBound(t *testing.T) {
	ddr3 := DDR3_1600()
	ddr3.RanksPerChan = 2
	ddr4 := DDR4_2400()
	ddr4.RanksPerChan = 2
	derate := Derate{TRCD: 2, TRP: 3, TRAS: 1, TRC: 2, TRTP: 1, TWR: 4, TFAW: 2, TRRD: 1, TCCD: 1, TWTR: 2}
	cases := []struct {
		name   string
		p      Params
		derate bool
	}{
		{"ddr3", ddr3, false},
		{"ddr3-derated", ddr3, true},
		{"ddr4", ddr4, false},
		{"ddr4-derated", ddr4, true},
	}
	kinds := []Kind{KindActivate, KindRead, KindReadAP, KindWrite, KindWriteAP,
		KindPrecharge, KindRefresh, KindPowerDown, KindPowerUp}
	const (
		seeds = 10
		steps = 500 // len(kinds) probes each
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			// A NeverReady verdict must outlast the longest constraint.
			window := int64(p.TRFC + p.TRC + p.TFAW + 64)
			var finite, never, dataBus, cmdBus int
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewPCG(seed, uint64(len(tc.name))))
				ch, twin := NewChannel(p), NewChannel(p)
				if tc.derate {
					ch.SetDerate(-1, derate)
					twin.SetDerate(-1, derate)
				}
				randomCmd := func(k Kind) Command {
					return Command{Kind: k, Rank: rng.IntN(p.RanksPerChan), Bank: rng.IntN(p.BanksPerRank), Row: rng.IntN(8)}
				}
				cycle := int64(0)
				for step := 0; step < steps; step++ {
					for _, k := range kinds {
						probe := randomCmd(k)
						// Aim column commands and precharges at open banks, so
						// more probes meet a timing constraint than a closed
						// bank's state rejection.
						for try := 0; try < 8 && k != KindActivate && k < KindRefresh &&
							ch.OpenRow(probe.Rank, probe.Bank) == ClosedRow; try++ {
							probe = randomCmd(k)
						}
						at, ready := ch.ReadyAt(probe, cycle), ch.Ready(probe, cycle)
						if (at <= cycle) != ready {
							t.Fatalf("seed %d cycle %d: ReadyAt(%v) = %d but Ready = %v", seed, cycle, probe, at, ready)
						}
						err := ch.CanIssue(probe, cycle)
						if ready {
							if at != cycle || err != nil {
								t.Fatalf("seed %d cycle %d: ready %v: ReadyAt %d, CanIssue %v", seed, cycle, probe, at, err)
							}
							continue
						}
						var te *TimingError
						if !errors.As(err, &te) || te.ReadyAt != at {
							t.Fatalf("seed %d cycle %d: %v rejected with %v, ReadyAt %d", seed, cycle, probe, err, at)
						}
						switch {
						case strings.HasPrefix(te.Constraint, "data bus"):
							dataBus++
						case strings.HasPrefix(te.Constraint, "command bus"):
							cmdBus++
						}
						end := at
						if at == NeverReady {
							never++
							end = cycle + window
						} else {
							finite++
						}
						for c := cycle + 1; c < end; c++ {
							if ch.Ready(probe, c) {
								t.Fatalf("seed %d cycle %d: %v legal at %d, before its bound %d (%s)",
									seed, cycle, probe, c, at, te.Constraint)
							}
						}
					}
					// Advance the state with one random command, weighted
					// towards the bank commands; refresh and power management
					// are rarer. A zero advance probes the next step on the
					// cycle a command just issued (the command-bus bound).
					k := kinds[rng.IntN(6)]
					if rng.IntN(40) == 0 {
						k = kinds[6+rng.IntN(3)]
					}
					cmd, suppressed := randomCmd(k), step%5 == 0
					at, err := ch.canIssue(cmd, cycle, false)
					if ch.Ready(cmd, cycle) {
						gen := ch.Gen()
						if err := ch.IssueEx(cmd, cycle, suppressed); err != nil {
							t.Fatalf("ready command refused: %v", err)
						}
						if ch.Gen() == gen {
							t.Fatalf("issuing %v left Gen at %d", cmd, gen)
						}
					}
					if twinAt, wide := twin.TryIssue(cmd, cycle, suppressed); twinAt != at || wide != (err == errRankBusy) {
						t.Fatalf("seed %d cycle %d: TryIssue(%v) = %d, rank-wide %v; Ready+IssueEx saw %d, %v",
							seed, cycle, cmd, twinAt, wide, at, err)
					}
					if twin.Gen() != ch.Gen() || twin.Counters != ch.Counters {
						t.Fatalf("seed %d cycle %d: after %v the twin holds Gen %d, %+v; the channel %d, %+v",
							seed, cycle, cmd, twin.Gen(), twin.Counters, ch.Gen(), ch.Counters)
					}
					cycle += int64(rng.IntN(6))
				}
			}
			if finite < 1000 || never < 1000 || dataBus < 50 || cmdBus < 50 {
				t.Fatalf("probes too uniform: %d finite bounds (%d data bus, %d command bus), %d never",
					finite, dataBus, cmdBus, never)
			}
		})
	}
}
