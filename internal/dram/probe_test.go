package dram

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestReadyIgnoresRowColDomain pins the invariants the Baseline
// scheduler's scoped wake relies on. Whether a command may issue depends
// only on its kind, rank, bank and the cycle, never on its row, column or
// domain. A command's rank scope (Scopes.Rank) is the same for every bank
// of its rank. And a command reaches only its own scopes: one to another
// bank leaves a bank's own scope unchanged, one outside a bank group its
// group scope, and one to another rank the rank scope. A random legal
// command stream (every kind, DDR3 and DDR4, with and without a derate)
// walks the channel through varied states; at each step every kind is
// probed on a random target with several row, column and domain variants,
// which must all get the same verdict, the scopes of every bank-level kind
// are compared across the banks of each rank, and the scopes before and
// after the step's command are compared for every target it does not
// reach.
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
		{"ddr4-derated", ddr4, true},
	}
	kinds := []Kind{KindActivate, KindRead, KindReadAP, KindWrite, KindWriteAP,
		KindPrecharge, KindRefresh}
	bankKinds := kinds[:6]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			rng := rand.New(rand.NewPCG(7, uint64(len(tc.name))))
			ch := NewChannel(p)
			if tc.derate {
				ch.SetDerate(0, Derate{TRCD: 2, TRP: 3, TWR: 4, TCCD: 1, TWTR: 2, TRRD: 1})
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
			// scopes holds every bank-level kind's scopes on every bank,
			// indexed [(kind*ranks+rank)*banks+bank].
			snapshot := func(dst []Scopes) []Scopes {
				dst = dst[:0]
				for _, k := range bankKinds {
					for r := 0; r < p.RanksPerChan; r++ {
						for b := 0; b < p.BanksPerRank; b++ {
							dst = append(dst, ch.Scopes(k, r, b))
						}
					}
				}
				return dst
			}
			var before, after []Scopes
			cycle := int64(0)
			accepted, ready, moved := 0, 0, [3]int{}
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
				before = snapshot(before)
				for i, s := range before {
					if first := before[i-i%p.BanksPerRank]; s.Rank != first.Rank {
						kind, rank, bank := bankKinds[i/p.TotalBanks()], i/p.BanksPerRank%p.RanksPerChan, i%p.BanksPerRank
						t.Fatalf("step %d: %v to rank %d bank %d has rank scope %d, bank 0 has %d",
							step, kind, rank, bank, s.Rank, first.Rank)
					}
				}
				// Advance the state with one random command, weighted towards
				// the bank commands so rows open and close often; refresh is
				// rarer but present.
				k := kinds[rng.IntN(6)]
				if rng.IntN(40) == 0 {
					k = KindRefresh
				}
				cmd := randomCmd(k)
				if !ch.Ready(cmd, cycle) {
					continue
				}
				if err := ch.Issue(cmd, cycle); err != nil {
					t.Fatalf("ready command refused: %v", err)
				}
				accepted++
				after = snapshot(after)
				for i := range before {
					kind, rank, bank := bankKinds[i/p.TotalBanks()], i/p.BanksPerRank%p.RanksPerChan, i%p.BanksPerRank
					b, a := before[i], after[i]
					sameRank := rank == cmd.Rank
					sameGroup := sameRank && (k >= KindRefresh || p.BankGroup(bank) == p.BankGroup(cmd.Bank))
					sameBank := sameRank && (k >= KindRefresh || bank == cmd.Bank)
					for s, pair := range [3][2]int64{{b.Bank, a.Bank}, {b.Group, a.Group}, {b.Rank, a.Rank}} {
						if pair[0] != pair[1] {
							moved[s]++
						}
						if reaches := [3]bool{sameBank, sameGroup, sameRank}[s]; pair[0] != pair[1] && !reaches {
							t.Fatalf("step %d: %v at %d moved the %s scope of %v to rank %d bank %d: %d -> %d",
								step, cmd, cycle, [3]string{"bank", "group", "rank"}[s], kind, rank, bank, pair[0], pair[1])
						}
					}
				}
			}
			if accepted < 1000 || ready < 1000 || moved[0] < 1000 || moved[2] < 1000 || p.BankGroups > 1 && moved[1] < 1000 {
				t.Fatalf("stream too quiet: %d commands applied, %d ready probes, bank/group/rank scopes moved %v times",
					accepted, ready, moved)
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
// same verdict and bound and hold the same Gen and Counters.
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
		KindPrecharge, KindRefresh}
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
					// towards the bank commands; refresh is rarer. A zero
					// advance probes the next step on the cycle a command just
					// issued (the command-bus bound).
					k := kinds[rng.IntN(6)]
					if rng.IntN(40) == 0 {
						k = KindRefresh
					}
					cmd, suppressed := randomCmd(k), step%5 == 0
					at, _ := ch.canIssue(cmd, cycle, false)
					if ch.Ready(cmd, cycle) {
						gen := ch.Gen()
						if err := ch.IssueEx(cmd, cycle, suppressed); err != nil {
							t.Fatalf("ready command refused: %v", err)
						}
						if ch.Gen() == gen {
							t.Fatalf("issuing %v left Gen at %d", cmd, gen)
						}
					}
					if twinAt := twin.TryIssue(cmd, cycle, suppressed); twinAt != at {
						t.Fatalf("seed %d cycle %d: TryIssue(%v) = %d; Ready+IssueEx saw %d",
							seed, cycle, cmd, twinAt, at)
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

// TestBoundsArePreciseLowerBounds pins the bounds the Baseline's wake is
// built on, with a forward scan of Ready as the oracle. A random legal
// command stream (DDR3 and DDR4, with and without a derate) walks the
// channel through varied states, and at each step every kind is bounded on
// a random target from a random cycle. Each bound is at least that cycle.
// The combined bound (rank of Bounds from the bank bound: the data bus
// searched from the latest of all other rules) is the first cycle from
// there that accepts the command: Ready is false on every cycle from the
// one after the last command, or from the starting cycle if later, up to
// it, and true on it. A state rejection (NeverReady) stays rejected for
// longer than any timing rule lasts.
func TestBoundsArePreciseLowerBounds(t *testing.T) {
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
		KindPrecharge, KindRefresh}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			window := int64(p.TRFC + p.TRC + p.TFAW + 64)
			var finite, never, dataBus int
			for seed := uint64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewPCG(seed, 0xb0))
				ch := NewChannel(p)
				if tc.derate {
					ch.SetDerate(-1, derate)
				}
				randomCmd := func(k Kind) Command {
					return Command{Kind: k, Rank: rng.IntN(p.RanksPerChan), Bank: rng.IntN(p.BanksPerRank), Row: rng.IntN(8)}
				}
				cycle, last := int64(0), int64(-1)
				for step := 0; step < 400; step++ {
					for _, k := range kinds {
						cmd := randomCmd(k)
						for try := 0; try < 8 && k != KindActivate && k < KindRefresh &&
							ch.OpenRow(cmd.Rank, cmd.Bank) == ClosedRow; try++ {
							cmd = randomCmd(k)
						}
						from := cycle + int64(rng.IntN(8)) - 4
						bank, rank := ch.Bounds(cmd, from)
						if bank < from || rank < from {
							t.Fatalf("seed %d: Bounds(%v, %d) = %d, %d, below the starting cycle", seed, cmd, from, bank, rank)
						}
						_, bound := ch.Bounds(cmd, max(bank, rank))
						bound = max(bound, bank)
						if ab, ar := ch.Bounds(cmd, from); ab != bank || ar != rank {
							t.Fatalf("seed %d: Bounds(%v, %d) is not repeatable", seed, cmd, from)
						}
						end := bound
						if bound == NeverReady {
							never++
							end = max(from, last+1) + window
						} else {
							finite++
							var te *TimingError
							if c := bound - 1; c > last && c >= from && errors.As(ch.CanIssue(cmd, c), &te) &&
								strings.HasPrefix(te.Constraint, "data bus") {
								dataBus++ // the data bus is the last rule to clear
							}
						}
						for c := max(from, last+1); c < end; c++ {
							if ch.Ready(cmd, c) {
								t.Fatalf("seed %d: %v legal at %d, before its bound %d (bank %d, rank %d from %d): %v",
									seed, cmd, c, bound, bank, rank, from, ch.CanIssue(cmd, bound))
							}
						}
						if bound != NeverReady && !ch.Ready(cmd, bound) {
							t.Fatalf("seed %d: %v not legal at its bound %d: %v", seed, cmd, bound, ch.CanIssue(cmd, bound))
						}
					}
					k := kinds[rng.IntN(6)]
					if rng.IntN(40) == 0 {
						k = KindRefresh
					}
					if cmd := randomCmd(k); ch.Ready(cmd, cycle) {
						if err := ch.Issue(cmd, cycle); err != nil {
							t.Fatalf("ready command refused: %v", err)
						}
						last = cycle
					}
					cycle += int64(rng.IntN(6))
				}
			}
			if finite < 1000 || never < 1000 || dataBus < 20 {
				t.Fatalf("bounds too uniform: %d finite (%d set by the data bus), %d never", finite, dataBus, never)
			}
		})
	}
}
