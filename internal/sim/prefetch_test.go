package sim

import (
	"reflect"
	"testing"

	"fsmem/internal/obs"
	"fsmem/internal/workload"
)

// TestPrefetchChangesOnlyFS: only FS fills its dummy slots with
// prefetches, so under the Baseline and TP the prefetcher never issues,
// and a run with Prefetch equals the run without it, metrics and command
// trace included. The experiments grid keys a cell's Prefetch only for FS
// kinds on this fact. FS_RP on xalancbmk, which leaves dummy slots for the
// prefetcher to fill, must differ, or the comparison shows nothing.
func TestPrefetchChangesOnlyFS(t *testing.T) {
	type tcase struct {
		mix  string
		kind SchedulerKind
	}
	cases := []tcase{{"xalancbmk", FSRankPart}}
	for _, mix := range []string{"milc", "lbm", "xalancbmk"} {
		for _, k := range []SchedulerKind{Baseline, TPBank, TPNone} {
			cases = append(cases, tcase{mix, k})
		}
	}
	for _, c := range cases {
		t.Run(c.mix+"/"+c.kind.String(), func(t *testing.T) {
			t.Parallel()
			mix, err := workload.Rate(c.mix, 8)
			if err != nil {
				t.Fatal(err)
			}
			run := func(prefetch bool) Result {
				cfg := DefaultConfig(mix, c.kind)
				cfg.TargetReads = 3000
				cfg.Prefetch = prefetch
				cfg.Observe = &obs.Options{TraceCap: 4096}
				res, err := Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			with, without := run(true), run(false)
			if same := reflect.DeepEqual(with, without); same != !c.kind.IsFS() {
				t.Errorf("runs with and without Prefetch equal: %v, want %v", same, !c.kind.IsFS())
			}
		})
	}
}
