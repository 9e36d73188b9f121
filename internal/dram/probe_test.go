package dram

import (
	"math/rand/v2"
	"testing"
)

// TestReadyIgnoresRowColDomain pins the invariant the Baseline scheduler's
// per-bank probe memo relies on: whether a command may issue depends only
// on its kind, rank, bank and the cycle, never on its row, column or
// domain. A random legal command stream (every kind, DDR3 and DDR4, with
// and without a derate) walks the channel through varied states; at each
// step every kind is probed on a random target with several row, column
// and domain variants, which must all get the same verdict.
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
			cycle := int64(0)
			accepted, ready := 0, 0
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
			if accepted < 1000 || ready < 1000 {
				t.Fatalf("stream too quiet: %d commands applied, %d ready probes", accepted, ready)
			}
		})
	}
}
