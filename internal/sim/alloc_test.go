package sim

import (
	"runtime"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/workload"
)

// TestSteadyStateAllocsPerRead pins the simulator's allocation floor: once
// queues, free lists, heaps and the cores' completion callbacks have
// grown to their working size, one more demand read
// allocates nothing. It counts heap allocations (runtime.MemStats.Mallocs)
// at two read targets and divides the difference by the extra reads
// completed, so setup cost cancels out; the bound leaves room only for
// rare growth of a queue or heap past its earlier peak. Unlike a timing
// gate this number does not move with host load.
func TestSteadyStateAllocsPerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerRead = 0.05
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		kind     SchedulerKind
		channels int
		routing  addr.Routing
	}{
		{"FS_RP/4ch-colored", FSRankPart, 4, addr.RouteColored},
		{"Baseline/1ch", Baseline, 1, addr.RouteInterleaved},
		{"TP_BP/1ch", TPBank, 1, addr.RouteInterleaved},
		{"FS_Reordered_BP/1ch", FSReorderedBank, 1, addr.RouteInterleaved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reads int64) (mallocs uint64, completed int64) {
				cfg := DefaultConfig(mix, tc.kind)
				cfg.TargetReads = reads
				cfg.Channels = tc.channels
				cfg.Routing = tc.routing
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := Simulate(cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, res.Run.TotalReads()
			}
			run(1000) // warm package-level state
			m1, r1 := run(2000)
			m2, r2 := run(6000)
			perRead := float64(int64(m2)-int64(m1)) / float64(r2-r1)
			t.Logf("%.3f allocs per extra read (%d -> %d reads)", perRead, r1, r2)
			if perRead > maxPerRead {
				t.Errorf("%.3f allocs per extra read, want <= %.2f", perRead, maxPerRead)
			}
		})
	}
}

// TestShortSimulationAllocs bounds what building and running one short
// simulation allocates: milc×8 under the Baseline to 800 reads. A core
// builds fewer completion callbacks than twice its peak reads in flight
// (386 allocations measured); one callback per ROB slot read 732, so the
// bound fails if per-slot callbacks return.
func TestShortSimulationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxAllocs = 500
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, Baseline)
	cfg.TargetReads = 800
	allocs := testing.AllocsPerRun(3, func() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
	})
	t.Logf("%.0f allocations per simulation", allocs)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per simulation, want <= %d", allocs, maxAllocs)
	}
}
