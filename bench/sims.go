package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// simSpec is the shape of one simulation workload: a rate-mode benchmark
// on every core, a scheduler, a fabric, and the demand reads one unit
// simulates (per channel under colored routing, as sim counts them).
type simSpec struct {
	bench    string
	cores    int
	sched    sim.SchedulerKind
	channels int
	routing  addr.Routing
	reads    int64
}

// shortDivisor shrinks units for the smoke tests.
const shortDivisor = 20

func (sp simSpec) config(seed uint64, short bool) (sim.Config, error) {
	mix, err := workload.Rate(sp.bench, sp.cores)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(mix, sp.sched)
	cfg.Channels = sp.channels
	cfg.Routing = sp.routing
	cfg.TargetReads = sp.reads
	if short {
		cfg.TargetReads /= shortDivisor
	}
	cfg.Seed = seed
	return cfg, nil
}

// simGoldenUnits is how many leading units bench/golden.json covers.
const simGoldenUnits = 2

type simUnit struct {
	cfg sim.Config
	res sim.Result
	err error
}

// simSession runs one simulation per unit, closed loop with one caller:
// sim.New, then System.RunContext to the read target.
type simSession struct {
	spec  simSpec
	seed  uint64
	short bool
	next  int
	done  []simUnit // every timed unit, by index
}

func openSim(sp simSpec) func(context.Context, uint64, bool) (session, error) {
	return func(ctx context.Context, seed uint64, short bool) (session, error) {
		s := &simSession{spec: sp, seed: seed, short: short}
		u := s.unit(ctx, warmUnit, nil)
		if err := simFailure(u.res, u.err); err != nil {
			return nil, fmt.Errorf("warm-up unit: %w", err)
		}
		return s, nil
	}
}

// unit simulates unit i, recording spans when tr is not nil.
func (s *simSession) unit(ctx context.Context, i int, tr *tracer) simUnit {
	cfg, err := s.spec.config(unitSeed(s.seed, i), s.short)
	if err != nil {
		return simUnit{cfg: cfg, err: err}
	}
	_, res, _, err := runSim(ctx, cfg, tr, i, nil)
	return simUnit{cfg: cfg, res: res, err: err}
}

// runSim simulates cfg as trace's unit: sim.New, then System.RunContext,
// each in a span of its own. prepare, when not nil, sees the system before
// it runs. It returns how long RunContext took.
func runSim(ctx context.Context, cfg sim.Config, tr *tracer, trace int, prepare func(*sim.System)) (*sim.System, sim.Result, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin(trace, 0, "unit", t0)
	sys, err := sim.New(cfg)
	t1 := time.Now()
	tr.record(trace, root, "sim.New", t0, t1)
	if err != nil {
		tr.end(root, t1)
		return nil, sim.Result{}, 0, err
	}
	if prepare != nil {
		prepare(sys)
	}
	res := sys.RunContext(ctx)
	t2 := time.Now()
	tr.record(trace, root, "System.RunContext", t1, t2)
	tr.end(root, t2)
	return sys, res, t2.Sub(t1), nil
}

func (s *simSession) measure(ctx context.Context, d time.Duration, tr *tracer) window {
	return closedLoop(d, &s.next, func(i int) (time.Duration, error) {
		t0 := time.Now()
		u := s.unit(ctx, i, tr)
		took := time.Since(t0)
		s.done = append(s.done, u)
		return took, simFailure(u.res, u.err)
	})
}

// check re-runs the first timed unit on the dense per-cycle loop, which
// must reproduce its result byte for byte.
func (s *simSession) check(ctx context.Context) error {
	if len(s.done) == 0 {
		return nil
	}
	first := s.done[0]
	if first.err != nil {
		return nil // already counted as a failed unit
	}
	want, err := canonical(first.cfg, first.res)
	if err != nil {
		return err
	}
	cfg := first.cfg
	cfg.DenseLoop = true
	res, err := sim.SimulateContext(ctx, cfg)
	if err != nil {
		return fmt.Errorf("dense re-run: %w", err)
	}
	got, err := canonical(cfg, res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("dense re-run of unit 0 differs from the fast-forward result")
	}
	return nil
}

func (s *simSession) goldenHash(ctx context.Context) (string, error) {
	h := sha256.New()
	for i := 0; i < simGoldenUnits; i++ {
		var u simUnit
		if i < len(s.done) {
			u = s.done[i]
		} else {
			u = s.unit(ctx, i, nil)
		}
		if err := simFailure(u.res, u.err); err != nil {
			return "", fmt.Errorf("unit %d: %w", i, err)
		}
		b, err := canonical(u.cfg, u.res)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (s *simSession) layers(context.Context, metricSet, *tracer, window) error { return nil }

func (s *simSession) replayConfig() sim.Config {
	cfg, _ := s.spec.config(unitSeed(s.seed, replayUnit), s.short) // open already built this shape
	return cfg
}

func (s *simSession) close() {}
