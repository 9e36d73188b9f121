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

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,6,7,8,9,10, s6, ablations, or all")
	reads := flag.Int64("reads", 20_000, "demand reads per simulation (paper: 1M)")
	cores := flag.Int("cores", 8, "cores / security domains")
	seed := flag.Uint64("seed", 42, "random seed")
	detail := flag.Bool("detail", false, "with -fig 6: also print latency/utilization/dummy statistics")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	workers := flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS); output is identical for every value")
	channels := flag.Int("channels", 0, "run the grid through an N-channel fabric (0 = single channel; s6 always uses 4)")
	routing := flag.String("routing", "colored", "multi-channel routing: colored or interleaved")
	traceOut := flag.String("trace-out", "", "export every memoized cell's command trace as JSONL to this file")
	traceCap := flag.Int("trace-cap", 0, "per-run trace ring capacity in events (0 = default)")
	startProf := obs.ProfileFlags(flag.CommandLine, "sweep")
	flag.Parse()
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
	}
	stopProf, err := startProf()
	fail(err)
	defer stopProf()
	render := func(t experiments.Table) string {
		if *csv {
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

	route, err := addr.RoutingByName(*routing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	settings := experiments.Settings{Cores: *cores, TargetReads: *reads, Seed: *seed, Workers: *workers,
		Channels: *channels, Routing: route}
	if *traceOut != "" {
		settings.Observe = &obs.Options{TraceCap: *traceCap}
	}
	r := experiments.NewRunner(settings)
	switch *fig {
	case "all":
		showAll(experiments.All(r))
		showAll(experiments.Ablations(r))
	case "ablations":
		showAll(experiments.Ablations(r))
	default:
		f, ok := experiments.Lookup(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -fig %q (options: %v, all)\n", *fig, experiments.Names())
			os.Exit(2)
		}
		if !show(f.Run(r)) {
			break
		}
		switch {
		case *fig == "4":
			fmt.Println("run cmd/leakage for the full execution-profile series")
		case *fig == "6" && *detail:
			show(experiments.Figure6Detail(r))
		}
	}
	if *traceOut != "" {
		errs = append(errs, exportTraces(r, *traceOut))
	}
	fail(errors.Join(errs...))
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
