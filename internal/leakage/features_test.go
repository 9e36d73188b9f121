package leakage

import (
	"testing"

	"fsmem/internal/core"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// collectWith runs the Figure 4 profile collection with extra config.
func collectWith(t *testing.T, k sim.SchedulerKind, coMPKI float64, mutate func(*sim.Config)) Profile {
	t.Helper()
	att, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	co := workload.Synthetic("co", coMPKI)
	mix := workload.Mix{Name: "leakage", Profiles: make([]workload.Profile, 8)}
	mix.Profiles[0] = att
	for d := 1; d < 8; d++ {
		mix.Profiles[d] = co
	}
	cfg := sim.DefaultConfig(mix, k)
	cfg.Seed = 123
	cfg.TargetReads = 0
	cfg.MaxBusCycles = 100_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{Scheduler: k.String(), CoRunner: co.Name, Milestone: 10_000}
	next := int64(10_000)
	for cycle := int64(0); cycle < cfg.MaxBusCycles; cycle++ {
		sys.Step()
		retired := sys.DomainInstructions(0)
		for retired >= next {
			prof.CyclesAt = append(prof.CyclesAt, (cycle+1)*4)
			next += 10_000
		}
		if retired >= 200_000 {
			return prof
		}
	}
	t.Fatal("attacker never finished")
	return prof
}

// TestPrefetchPreservesNonInterference: the sandbox prefetcher observes
// only its own domain's stream and fills only its own dummy slots, so it
// must not reopen the channel.
func TestPrefetchPreservesNonInterference(t *testing.T) {
	pf := func(c *sim.Config) { c.Prefetch = true }
	quiet := collectWith(t, sim.FSRankPart, 0.01, pf)
	loud := collectWith(t, sim.FSRankPart, 45, pf)
	if !Identical(quiet, loud) {
		d, _ := Divergence(quiet, loud)
		t.Fatalf("prefetching leaked: divergence %.5f", d)
	}
}

// TestEnergyOptsPreserveNonInterference: suppressed dummies, row-buffer
// boosts, and rank power-down change only the DRAM operations performed,
// never the command grid a co-runner could observe.
func TestEnergyOptsPreserveNonInterference(t *testing.T) {
	eo := func(c *sim.Config) {
		c.Energy = core.EnergyOpts{SuppressDummies: true, RowBufferBoost: true, PowerDown: true}
	}
	quiet := collectWith(t, sim.FSRankPart, 0.01, eo)
	loud := collectWith(t, sim.FSRankPart, 45, eo)
	if !Identical(quiet, loud) {
		d, _ := Divergence(quiet, loud)
		t.Fatalf("energy optimizations leaked: divergence %.5f", d)
	}
}

// TestWeightedSlotsPreserveNonInterference: SLA weights reshape the slot
// grid, but the grid is still fixed at configuration time.
func TestWeightedSlotsPreserveNonInterference(t *testing.T) {
	w := func(c *sim.Config) { c.SLAWeights = []int{2, 1, 1, 1, 1, 1, 1, 1} }
	quiet := collectWith(t, sim.FSRankPart, 0.01, w)
	loud := collectWith(t, sim.FSRankPart, 45, w)
	if !Identical(quiet, loud) {
		d, _ := Divergence(quiet, loud)
		t.Fatalf("weighted slots leaked: divergence %.5f", d)
	}
}

// TestRefreshEnabledPreservesNonInterference at the system level.
func TestRefreshEnabledPreservesNonInterference(t *testing.T) {
	rf := func(c *sim.Config) { c.RefreshEnabled = true }
	quiet := collectWith(t, sim.FSRankPart, 0.01, rf)
	loud := collectWith(t, sim.FSRankPart, 45, rf)
	if !Identical(quiet, loud) {
		d, _ := Divergence(quiet, loud)
		t.Fatalf("deterministic refresh leaked: divergence %.5f", d)
	}
}

// TestBaselinePrefetchStillLeaks: a sanity inversion — adding a prefetcher
// to the non-secure baseline does not accidentally make it secure.
func TestBaselinePrefetchStillLeaks(t *testing.T) {
	pf := func(c *sim.Config) { c.Prefetch = true }
	quiet := collectWith(t, sim.Baseline, 0.01, pf)
	loud := collectWith(t, sim.Baseline, 45, pf)
	if Identical(quiet, loud) {
		t.Fatal("baseline+prefetch should still leak")
	}
}
