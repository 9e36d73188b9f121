package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/parallel"
	"fsmem/internal/server"
	"fsmem/internal/sim"
)

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// open builds the workload's inputs from the seed, boots whatever the
	// workload talks to, and runs one untimed warm-up unit.
	open func(ctx context.Context, seed uint64, short bool) (session, error)
}

// session is a workload that is set up and warm, ready to be timed.
type session interface {
	// measure runs timed units for d — at least one unit, and for a
	// closed loop every unit it starts — recording spans into tr when tr
	// is not nil.
	measure(ctx context.Context, d time.Duration, tr *tracer) window
	// check verifies every output produced so far, outside any timed
	// window.
	check(ctx context.Context) error
	// goldenHash hashes the canonical outputs of the workload's first
	// units, computing any the timed windows did not reach.
	goldenHash(ctx context.Context) (string, error)
	// layers adds the per-layer metrics only this workload has, from the
	// traced window w.
	layers(ctx context.Context, m metricSet, tr *tracer, w window) error
	// replayConfig is the simulation the single-layer replays take their
	// inputs from.
	replayConfig() sim.Config
	close()
}

// window is what one timed stretch produced.
type window struct {
	units     []time.Duration // per successful unit
	attempted int
	failed    int
	notes     metricSet // text-only metrics of this window
	problems  []string  // why units failed
}

// The workloads, in the order a full run visits them. BENCHMARK.json and
// README.md give the reason for each.
var workloads = []benchWorkload{
	{"baseline-reads", openSim(simSpec{"milc", 8, sim.Baseline, 1, addr.RouteColored, 20_000})},
	{"writes-interleaved", openSim(simSpec{"lbm", 8, sim.Baseline, 4, addr.RouteInterleaved, 50_000})},
	{"fs-colored", openSim(simSpec{"milc", 8, sim.FSRankPart, 4, addr.RouteColored, 20_000})},
	{"idle-ff", openSim(simSpec{"xalancbmk", 2, sim.Baseline, 1, addr.RouteColored, 100_000})},
	{"sweep", openSweep},
	{"serve", openServe},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// Unit indexes below zero name the untimed units of a session.
const (
	warmUnit   = -1
	replayUnit = -2
)

// unitSeed derives unit i's seed from the run seed, so every unit gets its
// own input and one seed reproduces all of them.
func unitSeed(seed uint64, i int) uint64 {
	return parallel.DeriveSeed(seed, fmt.Sprintf("bench/unit/%d", i)) | 1
}

// closedLoop runs unit(i) for i = *next, *next+1, ... back to back, one
// caller, until d has elapsed (at least once). unit returns the unit's
// duration, or an error when it failed.
func closedLoop(d time.Duration, next *int, unit func(i int) (time.Duration, error)) window {
	var w window
	start := time.Now()
	for w.attempted == 0 || time.Since(start) < d {
		i := *next
		*next++
		took, err := unit(i)
		w.attempted++
		if err != nil {
			w.failed++
			w.problems = append(w.problems, fmt.Sprintf("unit %d: %v", i, err))
			continue
		}
		w.units = append(w.units, took)
	}
	return w
}

// simFailure reports why a finished simulation does not count as a
// success: an error, a watchdog stop, or any runtime-monitor violation.
func simFailure(res sim.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Truncated:
		return fmt.Errorf("truncated: %s", res.TruncateReason)
	case res.Monitor == nil:
		return fmt.Errorf("no monitor report")
	case !res.Monitor.Ok():
		return fmt.Errorf("monitor: %d timing, %d schedule, %d scheduler violations",
			res.Monitor.TimingViolations, res.Monitor.ScheduleViolations, res.Monitor.SchedulerViolations)
	}
	return nil
}

// canonical renders a simulation result as the bytes its correctness is
// judged on: the Result as JSON (without the trace) followed by the
// daemon's summary document of it, which adds the latency quantiles.
func canonical(cfg sim.Config, res sim.Result) ([]byte, error) {
	res.Trace = nil
	a, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(server.Summarize(cfg, res))
	if err != nil {
		return nil, err
	}
	return append(append(a, '\n'), b...), nil
}
