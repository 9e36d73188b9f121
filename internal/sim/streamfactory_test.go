package sim

import (
	"reflect"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// TestStreamFactoryReplaysGenerators drives the system through
// Config.StreamFactory, the path memsim -trace takes. The factory replays
// each domain's generator stream, captured with the seed the factory
// receives, so the run must equal the synthetic run exactly. Counting the
// factory's calls keeps a simulator that ignores the factory from passing.
func TestStreamFactoryReplaysGenerators(t *testing.T) {
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
		{"fs_rp", FSRankPart, 1, addr.RouteColored},
		{"baseline-2ch-interleaved", Baseline, 2, addr.RouteInterleaved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(mix, tc.kind)
			cfg.TargetReads = 1500
			cfg.Channels = tc.channels
			cfg.Routing = tc.routing
			want, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			cfg.StreamFactory = func(domain int, space addr.Space, seed uint64) trace.Stream {
				calls++
				gen := workload.NewGenerator(mix.Profiles[domain], space, cfg.DRAM, seed)
				return &trace.SliceStream{Refs: trace.Capture(gen, 4096)}
			}
			got, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if calls != len(mix.Profiles) {
				t.Fatalf("factory called %d times, want once per domain (%d)", calls, len(mix.Profiles))
			}
			if !reflect.DeepEqual(got.Run, want.Run) {
				t.Error("run statistics differ from the synthetic run")
			}
			if !reflect.DeepEqual(got.Monitor, want.Monitor) {
				t.Error("monitor reports differ from the synthetic run")
			}
		})
	}
}
