package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"fsmem/internal/experiments"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// figures are the grid experiments.All regenerates, in its order; the
// traced run times each through its own entry point.
var figures = []struct {
	id  string
	run func(*experiments.Runner) (experiments.Table, error)
}{
	{"Figure3", experiments.Figure3},
	{"Figure4", func(r *experiments.Runner) (experiments.Table, error) {
		t, _, err := experiments.Figure4(r)
		return t, err
	}},
	{"Figure5", experiments.Figure5},
	{"Figure6", experiments.Figure6},
	{"Figure6Detail", experiments.Figure6Detail},
	{"Figure7", experiments.Figure7},
	{"Figure8", experiments.Figure8},
	{"Figure9", experiments.Figure9},
	{"Figure10", experiments.Figure10},
	{"Section6", experiments.Section6},
}

type sweepUnit struct {
	seed   uint64
	tables string // every table's Format output, in order
	err    error
}

// sweepSession regenerates the whole figure grid per unit on a fresh
// runner (so no memoized cell carries over), closed loop with one caller.
type sweepSession struct {
	seed  uint64
	short bool
	next  int
	done  []sweepUnit
}

func openSweep(ctx context.Context, seed uint64, short bool) (session, error) {
	s := &sweepSession{seed: seed, short: short}
	// The warm-up is one figure, not the grid: a grid takes seconds and
	// set-up is repeated to report its median.
	r := experiments.NewRunner(s.settings(unitSeed(seed, warmUnit), 2, nil))
	r.Ctx = ctx
	if _, err := experiments.Figure3(r); err != nil {
		return nil, fmt.Errorf("warm-up figure: %w", err)
	}
	return s, nil
}

func (s *sweepSession) settings(seed uint64, workers int, onCell func(string)) experiments.Settings {
	st := experiments.Settings{Cores: 8, TargetReads: 800, Seed: seed, Workers: workers, OnCell: onCell}
	if s.short {
		st.Cores, st.TargetReads = 2, 100
	}
	return st
}

// grid regenerates every figure on a fresh runner.
func (s *sweepSession) grid(ctx context.Context, seed uint64) sweepUnit {
	u := sweepUnit{seed: seed}
	r := experiments.NewRunner(s.settings(seed, 2, nil))
	r.Ctx = ctx
	tables, err := experiments.All(r)
	u.tables, u.err = render(tables), err
	if err == nil {
		u.err = validTables(tables)
	}
	return u
}

func (s *sweepSession) measure(ctx context.Context, d time.Duration, tr *tracer) window {
	return closedLoop(d, &s.next, func(i int) (time.Duration, error) {
		t0 := time.Now()
		u := s.grid(ctx, unitSeed(s.seed, i))
		t1 := time.Now()
		tr.record(i, 0, "experiments.All", t0, t1)
		s.done = append(s.done, u)
		return t1.Sub(t0), u.err
	})
}

func render(tables []experiments.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Format())
	}
	return b.String()
}

// validTables checks the grid is complete and every value is a number.
func validTables(tables []experiments.Table) error {
	if len(tables) != len(figures) {
		return fmt.Errorf("%d tables, want %d", len(tables), len(figures))
	}
	for _, t := range tables {
		if len(t.Rows) == 0 {
			return fmt.Errorf("%s has no rows", t.ID)
		}
		for _, row := range t.Rows {
			for _, v := range row.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s/%s holds %v", t.ID, row.Label, v)
				}
			}
		}
	}
	return nil
}

// check has nothing beyond what every unit verified; the serial-versus-
// parallel comparison runs in the traced run (layers).
func (s *sweepSession) check(context.Context) error { return nil }

func (s *sweepSession) goldenHash(ctx context.Context) (string, error) {
	var u sweepUnit
	if len(s.done) > 0 {
		u = s.done[0]
	} else {
		u = s.grid(ctx, unitSeed(s.seed, 0))
	}
	if u.err != nil {
		return "", u.err
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(u.tables))), nil
}

// layers re-runs the last traced grid serially (Workers: 1), one figure at
// a time, timing each figure and each simulated cell. Its tables must equal
// the parallel ones byte for byte.
func (s *sweepSession) layers(ctx context.Context, m metricSet, tr *tracer, w window) error {
	if len(s.done) == 0 {
		return nil
	}
	last := s.done[len(s.done)-1]
	var cellTimes []float64
	var cells int
	prev := time.Now()
	r := experiments.NewRunner(s.settings(last.seed, 1, func(string) {
		// Workers: 1 fills cells one after another on one goroutine.
		now := time.Now()
		cellTimes = append(cellTimes, now.Sub(prev).Seconds())
		cells++
		prev = now
	}))
	r.Ctx = ctx
	var tables []experiments.Table
	start := time.Now()
	trace := len(s.done) - 1
	root := tr.begin(trace, 0, "serial grid", start)
	for _, f := range figures {
		t0 := time.Now()
		prev = t0
		t, err := f.run(r)
		t1 := time.Now()
		tr.record(trace, root, "experiments."+f.id, t0, t1)
		if err != nil {
			return fmt.Errorf("serial %s: %w", f.id, err)
		}
		tables = append(tables, t)
		m.note("experiments.figure_s."+f.id, t1.Sub(t0).Seconds(), "s", 1)
	}
	serial := time.Since(start)
	tr.end(root, start.Add(serial))
	if last.err == nil && render(tables) != last.tables {
		return fmt.Errorf("Workers: 1 tables differ from Workers: 2 tables for seed %d", last.seed)
	}
	m.add("experiments.cells_per_grid", float64(cells), "count", 1)
	m.add("parallel.speedup_j2", serial.Seconds()/median(seconds(w.units)), "x", len(w.units))
	m.note("experiments.cell_s.p50", median(cellTimes), "s", len(cellTimes))
	m.note("experiments.cell_s.max", percentile(cellTimes, 1), "s", len(cellTimes))
	return nil
}

// replayConfig is the first mix of the evaluation suite under Baseline at
// the sweep's scale: the cell every figure normalizes against.
func (s *sweepSession) replayConfig() sim.Config {
	st := s.settings(unitSeed(s.seed, replayUnit), 1, nil)
	suite, _ := workload.EvaluationSuite(st.Cores) // the warm-up already built it
	cfg := sim.DefaultConfig(suite[0], sim.Baseline)
	cfg.Seed, cfg.TargetReads = st.Seed, st.TargetReads
	return cfg
}

func (s *sweepSession) close() {}
