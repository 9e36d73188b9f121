// Package experiments regenerates every figure of the paper's evaluation
// (Section 7). Each FigureN function returns a Table whose rows mirror the
// figure's data series; cmd/sweep prints them, the benchmarks time them,
// and EXPERIMENTS.md records them against the paper's numbers.
//
// Execution model: every figure is a grid of independent simulations
// (workload mix x scheduler x configuration mutation). Each figure lists
// its grid once, as a []Spec in the order its table reads the cells, and
// Runner.Grid simulates every cell not yet memoized on the runner's worker
// pool (internal/parallel) and returns the results in spec order. Cells
// memoize by the simulation they run, so one regeneration simulates each
// distinct configuration once. The table is built from that slice, so its
// values, row order, and error text are byte-identical for every worker
// count, including Workers=1 (the serial path is the same code with a
// one-wide pool).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/energy"
	"fsmem/internal/fsmerr"
	"fsmem/internal/leakage"
	"fsmem/internal/obs"
	"fsmem/internal/parallel"
	"fsmem/internal/sim"
	"fsmem/internal/stats"
	"fsmem/internal/workload"
)

// Table is one figure's regenerated data.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one x-axis entry (usually a workload).
type Row struct {
	Label  string
	Values []float64
}

// CSV renders the table as comma-separated values for plotting.
func (t Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := 14
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Fprintf(&b, "%-14s", "workload")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width+2, c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*.3f", width+2, v)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Settings scales the experiments: the paper runs 1M reads per workload;
// tests and benches run smaller budgets.
type Settings struct {
	Cores       int
	TargetReads int64
	Seed        uint64

	// Channels selects the memory-fabric width every cell simulates (0 or
	// 1 = the classic single-channel machine); Routing maps requests to
	// channels. Both are part of every memo key: a 4-channel cell must
	// never answer a single-channel request.
	Channels int
	Routing  addr.Routing

	// Workers bounds the worker pool the figure grids are sharded across
	// (0 = GOMAXPROCS). Every table is byte-identical for every value; 1
	// is the serial path.
	Workers int

	// Observe, when non-nil, attaches a per-run tracer and metrics snapshot
	// to every simulated cell (each run gets its own tracer, so parallel
	// cell fills never share observability state and worker count cannot
	// perturb what a cell records). Export with Runner.ExportTraces.
	Observe *obs.Options

	// OnCell, when non-nil, is invoked once per grid cell the runner
	// actually simulates (cache hits never fire it), with MemoKey of the
	// config that ran it. Calls come from whichever pool worker computed
	// the cell, so the callback must be safe for concurrent use. It is a
	// progress hook only: it must not mutate the runner, and it never
	// affects what any cell computes (the daemon's SSE job-progress
	// stream is fed from it).
	OnCell func(key string)
}

type runKey struct {
	workload string
	sched    sim.SchedulerKind
	prefetch bool
	energy   core.EnergyOpts
	turn     int64
	cores    int
	slotL    int
	refresh  bool
	weights  string
	dram     int // bank groups disambiguate DDR3 vs DDR4 runs
	channels int // effective fabric width (1 = single-channel)
	routing  addr.Routing
}

// cellValue is one memoized grid cell: the simulation result or the error
// it failed with (errors memoize too, so a failed cell reports the same
// failure to every figure that lists it), and the key of the config that
// ran it, which labels its exported trace.
type cellValue struct {
	res sim.Result
	err error
	ran runKey
}

// Runner executes and memoizes simulation runs (every figure normalizes
// against the same baseline runs). The memo cache is safe for the
// concurrent cell fills Grid performs. Runners derived for another core
// count (Figure10) share their parent's cache and mutex, so one
// regeneration has one memo; its key holds the core count, so core counts
// never collide.
type Runner struct {
	S Settings

	// Ctx, when non-nil, cancels in-flight sweeps: pool dispatch stops and
	// running simulations truncate at their next watchdog check. Canceled
	// cells are never memoized.
	Ctx context.Context

	mu    *sync.Mutex
	cache map[runKey]cellValue
}

// NewRunner builds a runner with an empty memo.
func NewRunner(s Settings) *Runner {
	return &Runner{S: s, mu: new(sync.Mutex), cache: map[runKey]cellValue{}}
}

func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Spec names one grid cell: a workload mix, a scheduler, and an optional
// configuration mutation (turn length, slot spacing, energy options, ...).
type Spec struct {
	Mix    workload.Mix
	Kind   sim.SchedulerKind
	Mutate func(*sim.Config)
}

// keyOf normalizes a fully-expanded simulation config into its memo key.
// Everything that can change a cell's output is in the key; observability
// (Settings.Observe) deliberately is not — observation must never decide
// which simulation a cell runs.
func keyOf(cfg sim.Config) runKey {
	// Channels 0 and 1 both run one channel, and routing is meaningless
	// there; pin both so neither can fragment the cache.
	channels := max(cfg.Channels, 1)
	routing := cfg.Routing
	if channels == 1 {
		routing = addr.RouteColored
	}
	return runKey{
		workload: cfg.Mix.Name, sched: cfg.Scheduler, prefetch: cfg.Prefetch, energy: cfg.Energy,
		turn: cfg.TPTurnLength, cores: len(cfg.Mix.Profiles),
		slotL: cfg.FSSlotSpacing, refresh: cfg.RefreshEnabled,
		weights:  fmt.Sprint(cfg.SLAWeights),
		dram:     cfg.DRAM.BankGroups,
		channels: channels,
		routing:  routing,
	}
}

// MemoKey returns the canonical memo-key string for a fully-expanded
// simulation config: keyOf's normalization, extended with the per-runner
// fields (seed and run budget) a long-lived daemon must distinguish. Two
// configs with equal MemoKeys produce byte-identical results, so the
// string is safe to use as a content-addressed cache key and as the basis
// of deterministic job IDs. It keeps the config's own TP turn (0 stays 0)
// where the runner's memo resolves it, because daemon job IDs and cache
// keys are derived from it and must not move.
func MemoKey(cfg sim.Config) string {
	return fmt.Sprintf("%+v|seed=%d|reads=%d|maxcycles=%d",
		keyOf(cfg), cfg.Seed, cfg.TargetReads, cfg.MaxBusCycles)
}

// configFor expands a spec into its full simulation config and memo key.
// A TP cell's memo key holds the turn it runs (sim.TPTurn), so a zero turn
// and its mode's minimum are one simulation. Only FS fills dummy slots
// with prefetches, so the key holds Prefetch for FS kinds only: a Baseline
// or TP cell with the prefetcher on is the simulation without it.
func (r *Runner) configFor(sp Spec) (sim.Config, runKey) {
	cfg := sim.DefaultConfig(sp.Mix, sp.Kind)
	cfg.Seed = r.S.Seed
	cfg.TargetReads = r.S.TargetReads
	cfg.Observe = r.S.Observe
	cfg.Channels = r.S.Channels
	cfg.Routing = r.S.Routing
	if sp.Mutate != nil {
		sp.Mutate(&cfg)
	}
	key := keyOf(cfg)
	if _, turn, ok := sim.TPTurn(cfg); ok {
		key.turn = turn
	}
	key.prefetch = cfg.Prefetch && cfg.Scheduler.IsFS()
	return cfg, key
}

func (r *Runner) lookup(key runKey) (cellValue, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cache[key]
	return v, ok
}

func (r *Runner) store(key runKey, v cellValue) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[key] = v
}

// Grid simulates every spec not yet memoized on the runner's worker pool
// and returns each spec's result in spec order. A spec listed twice, or
// memoized by an earlier figure, runs once, and so do a TP spec at its
// mode's minimum turn and one that leaves the turn 0. Failed cells
// memoize their error, and Grid returns the first failed spec's error in
// spec order, so a figure that lists its cells in the order it reads them
// reports the failure a serial loop would hit first. Cancellation and a
// panicking cell return at once; a canceled cell is never memoized.
func (r *Runner) Grid(specs []Spec) ([]sim.Result, error) {
	keys := make([]runKey, len(specs))
	queued := map[runKey]bool{}
	var cells []parallel.Cell[struct{}]
	for i, sp := range specs {
		cfg, key := r.configFor(sp)
		keys[i] = key
		if queued[key] {
			continue
		}
		queued[key] = true
		if _, ok := r.lookup(key); ok {
			continue
		}
		label := fmt.Sprintf("%s/%v", sp.Mix.Name, sp.Kind)
		cells = append(cells, parallel.Cell[struct{}]{
			Key: label,
			Run: func(ctx context.Context) (struct{}, error) {
				res, err := sim.SimulateContext(ctx, cfg)
				if fsmerr.CodeOf(err) == fsmerr.CodeCanceled {
					// A canceled cell's partial state must not poison the
					// cache: a later retry with a live context re-runs it.
					return struct{}{}, err
				}
				if err != nil {
					err = fsmerr.Wrap(fsmerr.CodeExperiment, "experiments.run("+label+")", err)
				}
				if r.S.OnCell != nil {
					r.S.OnCell(MemoKey(cfg))
				}
				r.store(key, cellValue{res: res, err: err, ran: keyOf(cfg)})
				return struct{}{}, nil
			},
		})
	}
	if _, err := parallel.Map(r.ctx(), r.S.Workers, cells); err != nil {
		return nil, err
	}
	out := make([]sim.Result, len(specs))
	for i, key := range keys {
		v, _ := r.lookup(key)
		if v.err != nil {
			return nil, v.err
		}
		out[i] = v.res
	}
	return out, nil
}

func (r *Runner) suite() ([]workload.Mix, error) { return workload.EvaluationSuite(r.S.Cores) }

// ExportTraces writes the command traces of every successfully memoized
// cell, Figure 10's at every core count included, as concatenated JSONL
// documents, each preceded by a line labeling it with the key of the
// config that ran it (a TP cell keeps that config's turn, 0 included).
// Cells are emitted in sorted label order, so the output bytes are
// independent of the worker count and fill order that populated the cache
// — the determinism CI job diffs this output across -j values.
func (r *Runner) ExportTraces(w io.Writer) error {
	r.mu.Lock()
	type cell struct {
		label string
		v     cellValue
	}
	cells := make([]cell, 0, len(r.cache))
	for _, v := range r.cache {
		cells = append(cells, cell{label: fmt.Sprintf("%+v", v.ran), v: v})
	}
	r.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool { return cells[i].label < cells[j].label })
	for _, c := range cells {
		if c.v.err != nil || c.v.res.Trace == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "{\"cell\":%q}\n", c.label); err != nil {
			return err
		}
		if err := obs.WriteJSONL(w, c.v.res.Trace); err != nil {
			return err
		}
	}
	return nil
}

// column is one scheme of a table normalized to the baseline: a scheduler
// and an optional configuration mutation.
type column struct {
	kind   sim.SchedulerKind
	mutate func(*sim.Config)
}

// each returns one column per scheduler, all under the same mutation.
func each(kinds []sim.SchedulerKind, mutate func(*sim.Config)) []column {
	cols := make([]column, len(kinds))
	for i, k := range kinds {
		cols[i] = column{kind: k, mutate: mutate}
	}
	return cols
}

// score rates one column's cell against its mix's baseline cell.
type score func(mix workload.Mix, k sim.SchedulerKind, res, base sim.Result) (float64, error)

// weightedIPC scores a cell by its sum of weighted IPCs against the
// baseline (the paper's metric), divided by scale.
func weightedIPC(scale float64) score {
	return func(mix workload.Mix, k sim.SchedulerKind, res, base sim.Result) (float64, error) {
		w, err := stats.WeightedIPC(res.Run, base.Run)
		if err != nil {
			return 0, fsmerr.Wrap(fsmerr.CodeExperiment,
				fmt.Sprintf("experiments.weighted(%s/%v)", mix.Name, k), err)
		}
		return w / scale, nil
	}
}

// energyRatio scores a cell by its memory energy per demand read over the
// baseline's, under the DDR3 power model.
func energyRatio() score {
	model := energy.NewModel(dram.DDR3_1600(), energy.DDR3_4Gb())
	return func(_ workload.Mix, _ sim.SchedulerKind, res, base sim.Result) (float64, error) {
		per := energy.PerRead(model.ForRun(res.Run, res.FS), res.Run)
		return per / energy.PerRead(model.ForRun(base.Run, nil), base.Run), nil
	}
}

// normalized builds the rows of a per-mix table normalized to the
// baseline. Its grid lists, per mix, the baseline cell (under the base
// mutation) and then every column; each row holds the columns' scores
// against that mix's baseline.
func (r *Runner) normalized(mixes []workload.Mix, base func(*sim.Config), cols []column, s score) ([]Row, error) {
	var specs []Spec
	for _, mix := range mixes {
		specs = append(specs, Spec{Mix: mix, Kind: sim.Baseline, Mutate: base})
		for _, c := range cols {
			specs = append(specs, Spec{Mix: mix, Kind: c.kind, Mutate: c.mutate})
		}
	}
	res, err := r.Grid(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(mixes))
	for i, mix := range mixes {
		cells := res[i*(1+len(cols)):]
		rows[i].Label = mix.Name
		for j, c := range cols {
			v, err := s(mix, c.kind, cells[1+j], cells[0])
			if err != nil {
				return nil, err
			}
			rows[i].Values = append(rows[i].Values, v)
		}
	}
	return rows, nil
}

// mean returns the values of a table's AM row: each column's values summed
// in row order and divided by the number of rows.
func mean(rows []Row) []float64 {
	sums := make([]float64, len(rows[0].Values))
	for _, row := range rows {
		for i, v := range row.Values {
			sums[i] += v
		}
	}
	for i := range sums {
		sums[i] /= float64(len(rows))
	}
	return sums
}

// withAM appends the AM row to a per-mix table's rows.
func withAM(rows []Row) []Row { return append(rows, Row{Label: "AM", Values: mean(rows)}) }

// rateMixes builds rate-mode mixes of the named benchmarks at the given
// core count; op names the experiment in errors.
func rateMixes(op string, cores int, names ...string) ([]workload.Mix, error) {
	mixes := make([]workload.Mix, len(names))
	for i, name := range names {
		mix, err := workload.Rate(name, cores)
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "experiments."+op, err)
		}
		mixes[i] = mix
	}
	return mixes, nil
}

// Figure3 regenerates the design-space summary: arithmetic-mean normalized
// throughput (baseline = 1.0) for the five secure design points.
func Figure3(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	rows, err := r.normalized(suite, nil, each(sim.AllSecure(), nil), weightedIPC(float64(r.S.Cores)))
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:    "Figure 3",
		Title: "Design-space summary: normalized throughput (baseline = 1.0)",
		Columns: []string{
			"Baseline", "FS_RP", "FS_Reordered_BP", "TP_BP", "FS_NP_Optimized", "TP_NP",
		},
		Rows:  []Row{{Label: "AM", Values: append([]float64{1.0}, mean(rows)...)}},
		Notes: []string{"paper: 1.0 / 0.74 / 0.48 / 0.43 / 0.40 / 0.20"},
	}, nil
}

// Figure4 regenerates the execution-profile experiment (leakage.Compare):
// mcf against idle and memory-intensive co-runners, under the baseline and
// FS_RP. It returns the four profiles and a divergence summary table.
func Figure4(r *Runner) (Table, []leakage.Profile, error) {
	att, err := workload.ByName("mcf")
	if err != nil {
		return Table{}, nil, fsmerr.Wrap(fsmerr.CodeExperiment, "experiments.Figure4", err)
	}
	cmp, err := leakage.Compare(r.ctx(), leakage.CompareParams{
		Attacker: att, Domains: r.S.Cores, Schedulers: []sim.SchedulerKind{sim.Baseline, sim.FSRankPart},
		Samples: 40, Seed: r.S.Seed, Channels: r.S.Channels, Routing: r.S.Routing, Workers: r.S.Workers,
	})
	if err != nil {
		return Table{}, nil, fsmerr.Wrap(fsmerr.CodeExperiment, "experiments.Figure4", err)
	}
	t := Table{
		ID:      "Figure 4",
		Title:   "mcf execution profiles: divergence vs co-runner intensity",
		Columns: []string{"max divergence", "identical"},
		Notes:   []string{"paper: baseline curves diverge; FS curves overlap perfectly"},
	}
	var profiles []leakage.Profile
	for _, c := range cmp {
		div, err := leakage.Divergence(c.Quiet, c.Loud)
		if err != nil {
			return Table{}, nil, fsmerr.Wrap(fsmerr.CodeExperiment, "experiments.Figure4", err)
		}
		ident := 0.0
		if leakage.Identical(c.Quiet, c.Loud) {
			ident = 1.0
		}
		t.Rows = append(t.Rows, Row{Label: c.Scheduler.String(), Values: []float64{div, ident}})
		profiles = append(profiles, c.Quiet, c.Loud)
	}
	return t, profiles, nil
}

// Figure5 regenerates the TP turn-length sweep: weighted IPC per workload
// for bank-partitioned and no-partitioned TP at three turn lengths each.
func Figure5(r *Runner) (Table, error) {
	t := Table{
		ID:    "Figure 5",
		Title: "TP turn-length sweep: sum of weighted IPCs (8 threads)",
		Notes: []string{"paper: minimum turn lengths are best on average; non-secure baseline = 8.0"},
	}
	var cols []column
	for _, tp := range []struct {
		kind  sim.SchedulerKind
		label string
		turns []int64
	}{
		{sim.TPBank, "BP", []int64{15, 25, 39}}, // the paper's 60/100/156 CPU cycles
		{sim.TPNone, "NP", []int64{43, 53, 67}}, // the paper's 172/212/268 CPU cycles
	} {
		for _, turn := range tp.turns {
			t.Columns = append(t.Columns, fmt.Sprintf("T_TURN_%s_%d", tp.label, turn*4))
			cols = append(cols, column{kind: tp.kind, mutate: func(c *sim.Config) { c.TPTurnLength = turn }})
		}
	}
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	rows, err := r.normalized(suite, nil, cols, weightedIPC(1))
	if err != nil {
		return Table{}, err
	}
	t.Rows = withAM(rows)
	return t, nil
}

// Figure6 regenerates the headline comparison: weighted IPC per workload
// for FS_RP, FS_Reordered_BP, TP_BP, FS_NP_Optimized, TP_NP.
func Figure6(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	rows, err := r.normalized(suite, nil, each(sim.AllSecure(), nil), weightedIPC(1))
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "Figure 6",
		Title:   "FS vs TP: sum of weighted IPCs (8 cores)",
		Columns: []string{"FS_RP", "FS_Reordered_BP", "TP_BP", "FS_NP_Optimized", "TP_NP"},
		Rows:    withAM(rows),
		Notes: []string{
			"paper AM: FS_RP 69.3% above TP_BP; FS_Reordered_BP 11.3% above TP_BP; FS_NP_Optimized 2x TP_NP",
			"paper: best FS is 27% below the non-secure baseline (baseline = 8.0 here)",
		},
	}, nil
}

// Figure6Detail reports the section 7 side statistics for the Figure 6
// runs: average read latency, effective bus utilization, dummy fraction.
func Figure6Detail(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	var specs []Spec
	for _, mix := range suite {
		specs = append(specs,
			Spec{Mix: mix, Kind: sim.FSRankPart},
			Spec{Mix: mix, Kind: sim.TPBank})
	}
	res, err := r.Grid(specs)
	if err != nil {
		return Table{}, err
	}
	rows := make([]Row, len(suite))
	for i, mix := range suite {
		f, tp := res[2*i].Run, res[2*i+1].Run
		rows[i] = Row{Label: mix.Name, Values: []float64{
			f.AvgReadLatency(), f.BusUtilization(), f.DummyFraction() * 100,
			tp.AvgReadLatency(), tp.BusUtilization(),
		}}
	}
	return Table{
		ID:      "Figure 6 detail",
		Title:   "FS_RP and TP_BP derived statistics",
		Columns: []string{"FS_RP lat", "FS_RP util", "FS_RP dummy%", "TP_BP lat", "TP_BP util"},
		Rows:    withAM(rows),
		Notes:   []string{"paper: FS_RP avg latency 288 cycles, 37% effective utilization, 36% dummies; best TP_BP latency 683 cycles, 17% utilization"},
	}, nil
}

// Figure7 regenerates the prefetch experiment: baseline+prefetch, FS_RP
// with and without prefetch.
func Figure7(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	pf := func(c *sim.Config) { c.Prefetch = true }
	cols := []column{{sim.Baseline, pf}, {sim.FSRankPart, pf}, {sim.FSRankPart, nil}}
	rows, err := r.normalized(suite, nil, cols, weightedIPC(1))
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "Figure 7",
		Title:   "Prefetching into dummy slots (8 threads, rank partitioning)",
		Columns: []string{"Baseline_Prefetch", "FS_RP-Prefetch", "FS_RP"},
		Rows:    withAM(rows),
		Notes:   []string{"paper: prefetching improves FS_RP by 11% and the baseline by 6.3%"},
	}, nil
}

// Figure8 regenerates the energy comparison: memory energy per demand read
// normalized to the baseline, for the five secure schemes.
func Figure8(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	rows, err := r.normalized(suite, nil, each(sim.AllSecure(), nil), energyRatio())
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "Figure 8",
		Title:   "Normalized memory energy (baseline = 1.0)",
		Columns: []string{"FS_RP", "FS_Reordered_BP", "TP_BP", "FS_NP_Optimized", "TP_NP"},
		Rows:    withAM(rows),
		Notes:   []string{"paper: FS energy 11.4% below TP, within 19% of the baseline"},
	}, nil
}

// Figure9 regenerates the FS energy optimizations: FS_RP plain, then
// cumulatively suppressed dummies, row-buffer boost, and power-down.
func Figure9(r *Runner) (Table, error) {
	suite, err := r.suite()
	if err != nil {
		return Table{}, err
	}
	var cols []column
	for _, o := range []core.EnergyOpts{
		{},
		{SuppressDummies: true},
		{SuppressDummies: true, RowBufferBoost: true},
		{SuppressDummies: true, RowBufferBoost: true, PowerDown: true},
	} {
		cols = append(cols, column{kind: sim.FSRankPart, mutate: func(c *sim.Config) { c.Energy = o }})
	}
	rows, err := r.normalized(suite, nil, cols, energyRatio())
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "Figure 9",
		Title:   "FS_RP energy optimizations (normalized to baseline = 1.0)",
		Columns: []string{"FS_RP", "Suppressed_Dummy", "Row-buffer-opt", "Power-Down"},
		Rows:    withAM(rows),
		Notes:   []string{"paper: the three optimizations cut FS memory energy by 52.5%, to within 3.4% of the baseline"},
	}, nil
}

// Figure10 regenerates the scalability study: FS_RP, FS_Reordered_BP, and
// TP_BP at 8, 4, and 2 cores (normalized per core count). Each core count
// runs its own suite on a runner derived from r: the same worker pool,
// cancellation context and memo, so the cells other figures ran at that
// core count are not simulated again.
func Figure10(r *Runner) (Table, error) {
	t := Table{
		ID:      "Figure 10",
		Title:   "Scalability: sum of weighted IPCs at 8/4/2 cores",
		Columns: []string{"FS_RP", "FS_Reordered_BP", "TP"},
		Notes:   []string{"paper: FS beats TP by 85% at 4 threads and 18% at 2 threads despite the same-rank hazard"},
	}
	cols := each([]sim.SchedulerKind{sim.FSRankPart, sim.FSReorderedBank, sim.TPBank}, nil)
	for _, cores := range []int{8, 4, 2} {
		sub := *r // the same context, worker pool and memo
		sub.S.Cores = cores
		suite, err := sub.suite()
		if err != nil {
			return Table{}, err
		}
		rows, err := sub.normalized(suite, nil, cols, weightedIPC(1))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d cores", cores), Values: mean(rows)})
	}
	return t, nil
}

// Section6 regenerates the paper's full target system (Section 6): 32
// cores over a 4-channel fabric. The conventional configuration stripes
// every domain across all channels (interleaved routing) under the
// FR-FCFS baseline — the fast but leaky machine — while the secure
// configuration page-colors domains onto disjoint channels, each running
// its own Fixed Service schedule. Both run the same 32-thread mix; the
// interleaved read budget is scaled by the channel count so the two
// configurations retire comparable work (colored targets are per
// channel).
func Section6(r *Runner) (Table, error) {
	const channels = 4
	cores := r.S.Cores * channels
	mix, err := workload.Rate("milc", cores)
	if err != nil {
		return Table{}, fsmerr.Wrap(fsmerr.CodeExperiment, "experiments.Section6", err)
	}
	t := Table{
		ID:      "Section 6",
		Title:   fmt.Sprintf("Target system: %d cores, %d channels", cores, channels),
		Columns: []string{"sum IPC", "avg read latency", "bus utilization"},
		Notes: []string{
			"interleaved baseline shares every channel across domains (leaky, audited LEAKY); colored FS is the product of 4 independent secure machines",
		},
	}
	cases := []struct {
		label   string
		kind    sim.SchedulerKind
		routing addr.Routing
	}{
		{"baseline/interleaved", sim.Baseline, addr.RouteInterleaved},
		{"fs_rp/colored", sim.FSRankPart, addr.RouteColored},
	}
	var specs []Spec
	for _, c := range cases {
		specs = append(specs, Spec{Mix: mix, Kind: c.kind, Mutate: func(cfg *sim.Config) {
			cfg.Channels = channels
			cfg.Routing = c.routing
			if c.routing == addr.RouteInterleaved {
				cfg.TargetReads = r.S.TargetReads * channels
			}
		}})
	}
	res, err := r.Grid(specs)
	if err != nil {
		return Table{}, err
	}
	for i, c := range cases {
		run := res[i].Run
		var ipc float64
		for _, d := range run.Domains {
			ipc += d.IPC()
		}
		t.Rows = append(t.Rows, Row{Label: c.label, Values: []float64{
			ipc, run.AvgReadLatency(), run.BusUtilization(),
		}})
	}
	return t, nil
}

// Figure is one entry of the figure table: its wire ID (cmd/sweep -fig and
// the daemon's figures jobs; empty for an entry with none), the name its
// errors carry, and its entry point.
type Figure struct {
	ID   string
	Name string
	Run  func(*Runner) (Table, error)
}

// figures is every figure in All's order. The Figure 6 detail has no wire
// ID: it runs inside All and with sweep -fig 6 -detail.
var figures = []Figure{
	{"3", "Figure3", Figure3},
	{"4", "Figure4", func(r *Runner) (Table, error) { t, _, err := Figure4(r); return t, err }},
	{"5", "Figure5", Figure5},
	{"6", "Figure6", Figure6},
	{"", "Figure6Detail", Figure6Detail},
	{"7", "Figure7", Figure7},
	{"8", "Figure8", Figure8},
	{"9", "Figure9", Figure9},
	{"10", "Figure10", Figure10},
	{"s6", "Section6", Section6},
}

// Lookup returns the figure with the given wire ID.
func Lookup(id string) (Figure, bool) {
	for _, f := range figures {
		if f.ID != "" && f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Names lists the figure wire IDs, sorted. "s6" is the Section 6 target
// system (32 cores over a 4-channel fabric).
func Names() []string {
	var n []string
	for _, f := range figures {
		if f.ID != "" {
			n = append(n, f.ID)
		}
	}
	sort.Strings(n)
	return n
}

// capture runs one figure, converting a panic anywhere below it into a
// structured experiment error so one broken figure cannot abort the whole
// regeneration.
func capture(r *Runner, f Figure) (t Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fsmerr.New(fsmerr.CodeExperiment, "experiments."+f.Name, "panic: %v", p)
		}
	}()
	return f.Run(r)
}

// runAll runs figures in order. Figures that fail are skipped and their
// errors joined, so a partial regeneration still returns every healthy
// table. Figures run sequentially — each one shards its own simulation
// grid across the runner's worker pool, and later figures reuse every cell
// earlier ones memoized, Figure 10's core counts included — so the table
// sequence is identical for every worker count.
func runAll(r *Runner, figs []Figure) ([]Table, error) {
	var tables []Table
	var errs []error
	for _, f := range figs {
		t, err := capture(r, f)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		tables = append(tables, t)
	}
	return tables, errors.Join(errs...)
}

// All regenerates every figure in order (Figure 4's profile series are
// folded into its table).
func All(r *Runner) ([]Table, error) { return runAll(r, figures) }
