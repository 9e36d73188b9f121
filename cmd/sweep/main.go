// Command sweep regenerates the paper's evaluation figures (Section 7) as
// text tables: performance (Figures 3, 5, 6, 10), prefetching (Figure 7),
// energy (Figures 8, 9), and Figure 4's divergence summary (cmd/leakage
// prints its full execution-profile series).
//
// Usage:
//
//	sweep                       # every figure at the default scale
//	sweep -fig 6 -reads 100000  # one figure, bigger budget
//	sweep -fig 6 -detail        # include the §7 side statistics
//	sweep -fig all -j 8         # shard the grid across 8 workers
//	sweep -fig 3 -trace-out t.jsonl  # also export per-cell command traces
//
// The -j flag bounds the worker pool the simulation grid is sharded
// across (0 = GOMAXPROCS). Output is byte-identical for every -j value:
// the pool only decides when cells are computed, never what they contain
// or the order they are printed in. The -trace-out export shares the same
// guarantee (cells are emitted in sorted key order).
//
// A failed figure does not stop the rest: every healthy table is printed,
// the ablations run after a failed -fig all, and -trace-out is written,
// before sweep exits 1 with every error.
//
// Profiling: -cpuprofile, -memprofile, and -exectrace write the standard
// Go profiles for the whole sweep (inspect with `go tool pprof` /
// `go tool trace`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"fsmem/internal/addr"
	"fsmem/internal/experiments"
	"fsmem/internal/obs"
)

// options are sweep's flags.
type options struct {
	fig, routing, traceOut             string
	reads                              int64
	cores, workers, channels, traceCap int
	seed                               uint64
	detail, csv                        bool
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 3,4,5,6,7,8,9,10, s6, ablations, or all")
	flag.Int64Var(&o.reads, "reads", 20_000, "demand reads per simulation (paper: 1M)")
	flag.IntVar(&o.cores, "cores", 8, "cores / security domains")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.BoolVar(&o.detail, "detail", false, "with -fig 6: also print latency/utilization/dummy statistics")
	flag.BoolVar(&o.csv, "csv", false, "emit comma-separated values instead of aligned tables")
	flag.IntVar(&o.workers, "j", 0, "parallel simulation workers (0 = GOMAXPROCS); output is identical for every value")
	flag.IntVar(&o.channels, "channels", 0, "run the grid through an N-channel fabric (0 = single channel; s6 always uses 4)")
	flag.StringVar(&o.routing, "routing", "colored", "multi-channel routing: colored or interleaved")
	flag.StringVar(&o.traceOut, "trace-out", "", "export every memoized cell's command trace as JSONL to this file")
	flag.IntVar(&o.traceCap, "trace-cap", 0, "per-run trace ring capacity in events (0 = default)")
	startProf := obs.ProfileFlags(flag.CommandLine, "sweep")
	flag.Parse()
	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	code := run(o)
	stopProf()
	os.Exit(code)
}

// run regenerates the figures o selects and returns the exit code.
func run(o options) int {
	render := func(t experiments.Table) string {
		if o.csv {
			return t.CSV()
		}
		return t.Format()
	}
	var errs []error
	show := func(t experiments.Table, err error) bool {
		if err != nil {
			errs = append(errs, err)
			return false
		}
		fmt.Println(render(t))
		return true
	}
	showAll := func(tables []experiments.Table, err error) {
		for _, t := range tables {
			fmt.Println(render(t))
		}
		errs = append(errs, err)
	}

	route, err := addr.RoutingByName(o.routing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	settings := experiments.Settings{Cores: o.cores, TargetReads: o.reads, Seed: o.seed, Workers: o.workers,
		Channels: o.channels, Routing: route}
	if o.traceOut != "" {
		settings.Observe = &obs.Options{TraceCap: o.traceCap}
	}
	r := experiments.NewRunner(settings)
	switch o.fig {
	case "all":
		showAll(experiments.All(r))
		showAll(experiments.Ablations(r))
	case "ablations":
		showAll(experiments.Ablations(r))
	default:
		f, ok := experiments.Lookup(o.fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -fig %q (options: %v, all)\n", o.fig, experiments.Names())
			return 2
		}
		if !show(f.Run(r)) {
			break
		}
		switch {
		case o.fig == "4":
			fmt.Println("run cmd/leakage for the full execution-profile series")
		case o.fig == "6" && o.detail:
			show(experiments.Figure6Detail(r))
		}
	}
	if o.traceOut != "" {
		errs = append(errs, exportTraces(r, o.traceOut))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	return 0
}

// exportTraces writes every memoized cell's command trace to path.
func exportTraces(r *experiments.Runner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.ExportTraces(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
