package sim

import (
	"runtime"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/workload"
)

// TestSteadyStateAllocsPerRead pins the simulator's allocation floor: once
// queues, free lists and heaps have grown to their working size, one more
// demand read costs only the core's completion closure. It counts heap
// allocations (runtime.MemStats.Mallocs) at two read targets and divides
// the difference by the extra reads completed, so setup cost cancels out.
// Unlike a timing gate this number does not move with host load.
func TestSteadyStateAllocsPerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerRead = 1.5
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
				t.Errorf("%.2f allocs per extra read, want <= %.1f", perRead, maxPerRead)
			}
		})
	}
}
