// Command memsim runs one workload under one memory scheduling policy and
// prints throughput, latency, bandwidth, dummy/prefetch, and energy
// statistics.
//
// Usage:
//
//	memsim -workload mcf -sched fs_rp -reads 100000
//	memsim -workload mix1 -sched baseline
//	memsim -print-config
//	memsim -cmd-trace run.jsonl -metrics     # observability outputs
//
// Observability: -cmd-trace exports the DRAM command/event stream as JSONL
// (render with cmd/tracedump), -chrome-trace as a Chrome trace_event file
// (load in Perfetto or chrome://tracing), -metrics prints the end-of-run
// metrics snapshot. Profiling: -cpuprofile / -memprofile / -exectrace
// write the standard Go profiles (-exectrace because -trace already names
// the input memory-trace file).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fsmem"
	"fsmem/internal/addr"
	"fsmem/internal/config"
	"fsmem/internal/energy"
	"fsmem/internal/obs"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// runFlags are the flags that shape the simulated run. -save-config writes
// the experiment they select, and the run itself is built from that same
// experiment, so a saved file replays the run exactly.
type runFlags struct {
	workload, sched, weights, routing string
	cores, channels                   int
	reads                             int64
	seed                              uint64
	prefetch, energyOpts, refresh     bool
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "mcf", "benchmark name (rate mode), or mix1/mix2")
	fs.StringVar(&f.sched, "sched", "fs_rp", "scheduler: "+strings.Join(config.SchedulerNames(), ", "))
	fs.IntVar(&f.cores, "cores", 8, "cores / security domains")
	fs.Int64Var(&f.reads, "reads", 50_000, "demand reads to simulate (positive)")
	fs.Uint64Var(&f.seed, "seed", 42, "random seed (nonzero; a saved experiment reads 0 as the default seed)")
	fs.BoolVar(&f.prefetch, "prefetch", false, "enable the sandbox prefetcher")
	fs.BoolVar(&f.energyOpts, "energy-opts", false, "enable all three FS energy optimizations")
	fs.BoolVar(&f.refresh, "refresh", false, "enable refresh (baseline, or FS_RP's deterministic refresh windows)")
	fs.StringVar(&f.weights, "weights", "", "comma-separated SLA slot weights per domain (FS only)")
	fs.IntVar(&f.channels, "channels", 1, "memory-fabric width (1 = classic single channel)")
	fs.StringVar(&f.routing, "routing", "colored", "multi-channel routing: colored (per-domain channels) or interleaved (striped)")
}

// experiment maps the flags onto the experiment they select. Its error is
// a usage error: a flag value the experiment cannot express.
func (f runFlags) experiment() (config.Experiment, error) {
	if _, ok := config.SchedulerByName(f.sched); !ok {
		return config.Experiment{}, fmt.Errorf("unknown -sched %q (options: %s)", f.sched, strings.Join(config.SchedulerNames(), ", "))
	}
	route, err := addr.RoutingByName(f.routing)
	if err != nil {
		return config.Experiment{}, err
	}
	if f.cores < 1 {
		return config.Experiment{}, fmt.Errorf("-cores must be at least 1, got %d", f.cores)
	}
	if f.reads <= 0 {
		return config.Experiment{}, fmt.Errorf("-reads must be positive, got %d", f.reads)
	}
	if f.seed == 0 {
		return config.Experiment{}, fmt.Errorf("-seed must be nonzero (a saved experiment reads 0 as the default seed)")
	}
	e := config.Default()
	e.Workload = f.workload
	e.Cores = f.cores
	e.Scheduler = f.sched
	e.Reads = f.reads
	e.Seed = f.seed
	e.Prefetch = f.prefetch
	e.Refresh = f.refresh
	if f.channels > 1 {
		e.Channels = f.channels
		e.Routing = route.String()
	}
	if f.energyOpts {
		e.EnergyOpts.SuppressDummies = true
		e.EnergyOpts.RowBufferBoost = true
		e.EnergyOpts.PowerDown = true
	}
	if f.weights != "" {
		for _, w := range strings.Split(f.weights, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &n); err != nil {
				return config.Experiment{}, fmt.Errorf("bad -weights entry %q", w)
			}
			e.SLAWeights = append(e.SLAWeights, n)
		}
	}
	return e, nil
}

func main() {
	var rf runFlags
	rf.register(flag.CommandLine)
	traceIn := flag.String("trace", "", "drive every domain from this post-LLC trace file instead of the synthetic workload")
	traceOut := flag.String("record-trace", "", "record domain 0's reference stream to this file and exit")
	traceCount := flag.Int("record-count", 100000, "references to record with -record-trace")
	printConfig := flag.Bool("print-config", false, "print the Table 1 configuration and exit")
	configIn := flag.String("config", "", "load the full experiment from this JSON file (overrides other flags)")
	configOut := flag.String("save-config", "", "write the selected experiment as JSON and exit")
	cmdTrace := flag.String("cmd-trace", "", "export the DRAM command/event trace as JSONL to this file")
	chromeTrace := flag.String("chrome-trace", "", "export the command/event trace as Chrome trace_event JSON to this file")
	traceCap := flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")
	metrics := flag.Bool("metrics", false, "print the end-of-run metrics snapshot")
	startProf := obs.ProfileFlags(flag.CommandLine, "memsim")
	flag.Parse()

	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *printConfig {
		p := fsmem.DDR3x1600()
		fmt.Printf("DDR3-1600, 1 channel(s), %d ranks/channel, %d banks/rank\n", p.RanksPerChan, p.BanksPerRank)
		fmt.Printf("tRC=%d tRCD=%d tRAS=%d tRP=%d tRTP=%d tWR=%d\n", p.TRC, p.TRCD, p.TRAS, p.TRP, p.TRTP, p.TWR)
		fmt.Printf("tFAW=%d tRRD=%d tCCD=%d tWTR=%d tCAS=%d tCWD=%d tBURST=%d tRTRS=%d\n",
			p.TFAW, p.TRRD, p.TCCD, p.TWTR, p.TCAS, p.TCWD, p.TBURST, p.TRTRS)
		fmt.Printf("tREFI=%d tRFC=%d tXP=%d; CPU:bus clock ratio %d\n", p.TREFI, p.TRFC, p.TXP, p.CPUCyclesPerBusCycle)
		fmt.Printf("workloads: %s\n", strings.Join(fsmem.Workloads(), ", "))
		return
	}

	// The experiment is selected once, before any step uses it: the
	// -config file's when one is given, else the flags'. A bad flag exits
	// 2 even beside -config; an unreadable or invalid file exits 1.
	e, err := rf.experiment()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := e.ToSimConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *configIn != "" {
		f, err := os.Open(*configIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		e, err = config.Load(f)
		f.Close()
		if err == nil {
			cfg, err = e.ToSimConfig()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *configOut != "" {
		f, err := os.Create(*configOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := e.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *configOut)
		return
	}

	if *traceOut != "" {
		space, err := addr.SpaceFor(cfg.Scheduler.Partition(), 0, len(cfg.Mix.Profiles), cfg.DRAM)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen := workload.NewGenerator(cfg.Mix.Profiles[0], space, cfg.DRAM, cfg.Seed)
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteTrace(f, trace.Capture(gen, *traceCount)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d references of %s to %s\n", *traceCount, cfg.Mix.Profiles[0].Name, *traceOut)
		return
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		refs, err := trace.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Every domain replays the trace, remapped into its own partition
		// space (the OS page-coloring step).
		cfg.StreamFactory = func(domain int, space addr.Space, seed uint64) trace.Stream {
			remapped := make([]trace.Ref, len(refs))
			for i, r := range refs {
				r.Addr.Rank = space.Ranks[r.Addr.Rank%len(space.Ranks)]
				r.Addr.Bank = space.Banks[r.Addr.Bank%len(space.Banks)]
				remapped[i] = r
			}
			return &trace.SliceStream{Refs: remapped}
		}
	}

	if *cmdTrace != "" || *chromeTrace != "" || *metrics {
		fsmem.Observe(&cfg, fsmem.ObserveOptions{TraceCap: *traceCap})
	}

	res, err := fsmem.Simulate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run := res.Run

	export := func(path, format string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = fsmem.TraceExport(f, res, format)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	export(*cmdTrace, "jsonl")
	export(*chromeTrace, "chrome")

	fmt.Printf("scheduler          %s\n", run.Scheduler)
	fmt.Printf("workload           %s (%d domains)\n", run.Workload, len(run.Domains))
	if cfg.Channels > 1 {
		fmt.Printf("fabric             %d channels, %s routing\n", cfg.Channels, cfg.Routing)
	}
	fmt.Printf("bus cycles         %d\n", run.BusCycles)
	fmt.Printf("demand reads       %d\n", run.TotalReads())
	fmt.Printf("instructions       %d\n", run.TotalInstructions())
	fmt.Printf("avg read latency   %.1f bus cycles\n", run.AvgReadLatency())
	fmt.Printf("bus utilization    %.1f%%\n", run.BusUtilization()*100)
	fmt.Printf("dummy fraction     %.1f%%\n", run.DummyFraction()*100)

	model := energy.NewModel(cfg.DRAM, energy.DDR3_4Gb())
	var fsStats = res.FS
	b := model.ForRun(run, fsStats)
	fmt.Printf("memory energy      %.3f mJ (act %.2f / rd %.2f / wr %.2f / bg %.2f)\n",
		b.Total*1e3, b.ActivateJ*1e3, b.ReadJ*1e3, b.WriteJ*1e3, b.BackgroundJ*1e3)
	fmt.Printf("energy per read    %.1f nJ\n", energy.PerRead(b, run)*1e9)

	if len(run.Latency) > 0 && run.Latency[0].Count() > 0 {
		fmt.Printf("read latency tail   p50<=%d p95<=%d p99<=%d max=%d bus cycles\n",
			run.Latency[0].Quantile(0.5), run.Latency[0].Quantile(0.95),
			run.Latency[0].Quantile(0.99), run.Latency[0].Max())
	}

	fmt.Println("\nper-domain:")
	fmt.Println("  dom  IPC     reads    writes   dummies  prefetch  rowhits  avg-lat")
	for d, dom := range run.Domains {
		fmt.Printf("  %3d  %.3f %8d %8d %8d %8d %8d %8.1f\n",
			d, dom.IPC(), dom.Reads, dom.Writes, dom.Dummies, dom.Prefetches, dom.RowHits, dom.AvgReadLatency())
	}

	if *metrics {
		fmt.Println("\nmetrics:")
		io.WriteString(os.Stdout, res.Metrics.Format())
	}
}
