package sim

import (
	"testing"

	"fsmem/internal/fsmerr"
	"fsmem/internal/obs"
	"fsmem/internal/workload"
)

// TestReconfigureSLA performs the §5.1 SLA change mid-run: drain, swap to
// weighted slots, keep running. The channel model validates every command,
// so a broken handover would panic.
func TestReconfigureSLA(t *testing.T) {
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 60_000; i++ {
		sys.Step()
	}
	var before []int64
	for d := range sys.Controller().Dom {
		before = append(before, sys.Controller().Dom[d].Reads)
	}

	if err := sys.Reconfigure([]int{3, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 120_000; i++ {
		sys.Step()
	}
	ctl := sys.Controller()
	d0 := ctl.Dom[0].Reads - before[0]
	d1 := ctl.Dom[1].Reads - before[1]
	if d0 == 0 || d1 == 0 {
		t.Fatalf("service stalled after reconfiguration: %d / %d", d0, d1)
	}
	// Domain 0 now holds 3 of 6 slots; under saturation it should clearly
	// out-serve a weight-1 domain.
	if float64(d0) < 1.5*float64(d1) {
		t.Errorf("post-reconfiguration service ratio %.2f (reads %d vs %d), want > 1.5", float64(d0)/float64(d1), d0, d1)
	}
}

// TestReconfigureThenRunStopsOnTime pins the clock hand-off after a
// reconfiguration: the drain ticks the controller while the cores stall,
// so the system's clock must follow the controller's, or a later
// fixed-duration Run overshoots its MaxBusCycles by the drain length.
func TestReconfigureThenRunStopsOnTime(t *testing.T) {
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	const stop = 100_000
	for _, observe := range []bool{false, true} {
		cfg := DefaultConfig(mix, FSRankPart)
		cfg.TargetReads = 0
		cfg.MaxBusCycles = stop
		if observe {
			cfg.Observe = &obs.Options{}
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			sys.Step()
		}
		if err := sys.Reconfigure([]int{3, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if drained := sys.Controller().Cycle; drained <= 20_000 {
			t.Fatalf("drain took no cycles (controller at %d): the test is vacuous", drained)
		}
		res := sys.Run()
		if res.Run.BusCycles != stop {
			t.Errorf("observe=%v: run stopped at bus cycle %d, want %d", observe, res.Run.BusCycles, stop)
		}
		if observe {
			if got, ok := res.Metrics.Get("sim.bus_cycles"); !ok || got != stop {
				t.Errorf("sim.bus_cycles = %v (present %v), want %d", got, ok, stop)
			}
		}
	}
}

// TestReconfigureRejectsNonFS pins the documented restriction: only Fixed
// Service schedulers have a slot grid to re-weight; everything else gets a
// structured config error, not a panic or a silent no-op.
func TestReconfigureRejectsNonFS(t *testing.T) {
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []SchedulerKind{Baseline, TPBank, TPNone} {
		sys, err := New(DefaultConfig(mix, k))
		if err != nil {
			t.Fatal(err)
		}
		err = sys.Reconfigure([]int{2, 1, 1, 1})
		if err == nil {
			t.Fatalf("%s: reconfiguration should be rejected", k)
		}
		if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("%s: error code %q, want %q (%v)", k, fsmerr.CodeOf(err), fsmerr.CodeConfig, err)
		}
	}
}

// TestReconfigureRejectsBadWeights covers the weight-validation error
// paths: wrong length, all-zero weights, and the reordered variant (which
// serves exactly one transaction per domain per interval by construction).
// A rejected reconfiguration must leave the old schedule in force.
func TestReconfigureRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name    string
		kind    SchedulerKind
		weights []int
	}{
		{"wrong-length", FSRankPart, []int{1, 2}},
		{"zero-sum", FSRankPart, []int{0, 0, 0, 0}},
		{"reordered", FSReorderedBank, []int{2, 1, 1, 1}},
	}
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(mix, tc.kind)
			cfg.TargetReads = 0
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				sys.Step()
			}
			err = sys.Reconfigure(tc.weights)
			if err == nil {
				t.Fatal("bad weights accepted")
			}
			if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
				t.Errorf("error code %q, want %q (%v)", fsmerr.CodeOf(err), fsmerr.CodeConfig, err)
			}
			// The old schedule must keep serving reads after the rejection.
			before := sys.lanes[0].reads()
			for i := 0; i < 4000; i++ {
				sys.Step()
			}
			if sys.lanes[0].reads() <= before {
				t.Fatal("system stopped serving reads after a rejected reconfiguration")
			}
		})
	}
}
