// Command fsbench is fsmem's benchmark. It drives six named workloads —
// four simulator shapes, the paper's figure sweep, and the fsmemd daemon
// under an open-loop job mix — through the repository's public Go API,
// times them, and checks every output they produce. A traced run
// attributes the time to layers (scheduler, FS engine, DRAM model, cores,
// fabric, kernel, daemon) with spans, a folded CPU profile, exact counters
// and single-layer replays.
//
// Run it from the repository root (bench/README.md has the details):
//
//	bash bench/run.sh                       # every workload, untraced
//	bash bench/run.sh --trace 1             # every workload, traced
//	bash bench/run.sh --workload sweep --seed 7 --seconds 10 --trace 0
//
// A single-workload run prints its metrics as text, then one JSON line:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {"value":..., "unit":...}}}.
// It exits non-zero when any output is wrong.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed bench/golden.json pins.
const defaultSeed = 42

// runDeadline bounds a whole run, checks included, so a stuck unit ends as
// a failure instead of hanging the caller.
const runDeadline = 170 * time.Second

//go:embed golden.json
var goldenJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // where traced runs write spans and profiles
	short    bool   // shrink every unit (tests only)
	setups   int    // set-ups per run; the median is reported
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 3}
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty: every workload, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "traces"), "directory for the spans and CPU profile of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "fsbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(stderr, "fsbench: golden.json:", err)
		return 2
	}
	return runWith(o, golden, stdout, stderr)
}

// runWith runs one workload, or every workload when o.workload is empty,
// and returns the process exit code.
func runWith(o options, golden map[string]string, stdout, stderr io.Writer) int {
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(stderr, "fsbench: needs at least 2 CPUs, this host has %d\n", n)
		return 2
	}
	runtime.GOMAXPROCS(2)
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "fsbench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	fmt.Fprintf(stdout, "fsbench: %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := runWorkload(ctx, w, o, golden[w.name])
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, w.name)
	if !rep.Correct {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "fsbench: %s: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own — a fresh heap,
// its own peak RSS, no effect of workload order — and relays its output.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "fsbench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "fsbench: workload %s failed: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number. Text-only metrics are printed in the
// report but left out of the JSON result, whose metric set is fixed by
// BENCHMARK.json.
type metric struct {
	value float64
	unit  string
	n     int // samples behind the value
	text  bool
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string, n int) {
	m[name] = metric{value: v, unit: unit, n: n}
}

func (m metricSet) note(name string, v float64, unit string, n int) {
	m[name] = metric{value: v, unit: unit, n: n, text: true}
}

// report is the outcome of one workload run.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`

	all      metricSet
	problems []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric as a text line, then the JSON result as the
// last line.
func (r *report) print(w io.Writer, name string) {
	names := make([]string, 0, len(r.all))
	for k := range r.all {
		names = append(names, k)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, k := range names {
		m := r.all[k]
		fmt.Fprintf(bw, "%s %-36s %14.6g %-6s n=%d\n", name, k, m.value, m.unit, m.n)
	}
	fmt.Fprintf(bw, "%s attempted=%d failed=%d correct=%v\n", name, r.Attempted, r.Failed, r.Correct)
	b, _ := json.Marshal(r) // only plain numbers and strings: cannot fail
	bw.Write(b)
	bw.WriteString("\n")
	bw.Flush()
}

// runWorkload sets the workload up, measures it untraced or traced, and
// checks its outputs.
func runWorkload(ctx context.Context, w benchWorkload, o options, golden string) (*report, error) {
	if o.trace {
		o.setups = 1 // set-up time is an end-to-end metric: untraced runs report it
	}
	var s session
	var setups []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = w.open(ctx, o.seed, o.short); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	rep := &report{all: metricSet{}}
	d := time.Duration(o.seconds * float64(time.Second))
	var win window
	if o.trace {
		var err error
		if win, err = measureTraced(ctx, s, d, o, w.name, rep.all); err != nil {
			return nil, err
		}
	} else {
		win = measureUntraced(ctx, s, d, rep.all)
		rep.all.add("setup_s", median(setups), "s", len(setups))
	}
	rep.Attempted, rep.Failed = win.attempted, win.failed
	for name, m := range win.notes {
		rep.all[name] = m
	}
	rep.problems = append(rep.problems, win.problems...)

	if err := s.check(ctx); err != nil {
		rep.problems = append(rep.problems, "check: "+err.Error())
	}
	if o.seed == defaultSeed && !o.short {
		got, err := s.goldenHash(ctx)
		switch {
		case err != nil:
			rep.problems = append(rep.problems, "golden: "+err.Error())
		case got != golden:
			rep.problems = append(rep.problems, fmt.Sprintf("golden: outputs hash to %s, bench/golden.json pins %q", got, golden))
		}
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	rep.Metrics = map[string]jsonMetric{}
	for name, m := range rep.all {
		if !m.text {
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
				rep.problems = append(rep.problems, "metric "+name+" has no value")
				rep.Correct = false
			}
			rep.Metrics[name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	return rep, nil
}

// measureUntraced times the workload and reports the end-to-end metrics.
func measureUntraced(ctx context.Context, s session, d time.Duration, m metricSet) window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win := s.measure(ctx, d, nil)
	runtime.ReadMemStats(&after)
	m.add("unit_s", median(seconds(win.units)), "s", len(win.units))
	m.add("alloc_mb_per_unit", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(max(win.attempted, 1)), "MB", win.attempted)
	m.add("max_rss_mb", maxRSSMB(), "MB", 1)
	return win
}

// measureTraced times the workload twice back to back, untraced and then
// traced (spans plus a CPU profile), and reports the per-layer metrics and
// the tracing overhead between the two halves.
func measureTraced(ctx context.Context, s session, d time.Duration, o options, name string, m metricSet) (window, error) {
	plain := s.measure(ctx, d/2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return plain, err
	}
	traced := s.measure(ctx, d/2, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	win := window{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		notes:     traced.notes,
		problems:  append(plain.problems, traced.problems...),
	}

	m.add("trace.overhead_frac", median(seconds(traced.units))/median(seconds(plain.units))-1, "frac", len(traced.units))
	m.add("runtime.gc_cycles_per_unit", float64(after.NumGC-before.NumGC)/float64(max(traced.attempted, 1)), "count", traced.attempted)
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return win, err
	}
	for bucket, share := range foldProfile(samples) {
		suffix := ".self_frac"
		if bucket == bucketMalloc || bucket == bucketGC || bucket == bucketRuntime {
			suffix = "_frac"
		}
		m.add(bucket+suffix, share, "frac", len(samples))
	}
	if err := replayLayers(ctx, s.replayConfig(), m, tr); err != nil {
		win.problems = append(win.problems, "layer replay: "+err.Error())
	}
	for _, l := range specificLayers {
		m.add(l.name, 0, l.unit, 0)
	}
	if err := s.layers(ctx, m, tr, traced); err != nil {
		win.problems = append(win.problems, "layers: "+err.Error())
	}
	for _, p := range []struct{ metric, span string }{
		{"sim.new_s.p50", "sim.New"},
		{"sim.run_s.p50", "System.RunContext"},
	} {
		ds := seconds(tr.durations(p.span))
		m.add(p.metric, median(ds), "s", len(ds))
	}

	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := tr.write(base + ".spans.json"); err != nil {
		return win, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return win, err
	}
	return win, nil
}

// specificLayers are the per-layer metrics only one workload produces
// (sweep, serve); every other workload reports them as 0.
var specificLayers = []struct{ name, unit string }{
	{"experiments.cells_per_grid", "count"},
	{"parallel.speedup_j2", "x"},
	{"server.queue_wait_frac", "frac"},
	{"server.exec_frac", "frac"},
	{"server.cache_hit_frac", "frac"},
}

// maxRSSMB returns this process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
