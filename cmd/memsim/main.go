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

func main() {
	wl := flag.String("workload", "mcf", "benchmark name (rate mode), or mix1/mix2")
	schedName := flag.String("sched", "fs_rp", "scheduler: "+strings.Join(config.SchedulerNames(), ", "))
	cores := flag.Int("cores", 8, "cores / security domains")
	reads := flag.Int64("reads", 50_000, "demand reads to simulate")
	seed := flag.Uint64("seed", 42, "random seed")
	prefetch := flag.Bool("prefetch", false, "enable the sandbox prefetcher")
	energyOpts := flag.Bool("energy-opts", false, "enable all three FS energy optimizations")
	fsRefresh := flag.Bool("refresh", false, "enable refresh (baseline, or FS_RP's deterministic refresh windows)")
	weights := flag.String("weights", "", "comma-separated SLA slot weights per domain (FS only)")
	channels := flag.Int("channels", 1, "memory-fabric width (1 = classic single channel)")
	routing := flag.String("routing", "colored", "multi-channel routing: colored (per-domain channels) or interleaved (striped)")
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
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	exectrace := flag.String("exectrace", "", "write a Go execution trace to this file")
	flag.Parse()

	stopProf, err := obs.StartProfiling(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "memsim: profiling: %v\n", err)
		}
	}()

	if *printConfig {
		p := fsmem.DDR3x1600()
		fmt.Printf("DDR3-1600, %d channel(s), %d ranks/channel, %d banks/rank\n", p.Channels, p.RanksPerChan, p.BanksPerRank)
		fmt.Printf("tRC=%d tRCD=%d tRAS=%d tRP=%d tRTP=%d tWR=%d\n", p.TRC, p.TRCD, p.TRAS, p.TRP, p.TRTP, p.TWR)
		fmt.Printf("tFAW=%d tRRD=%d tCCD=%d tWTR=%d tCAS=%d tCWD=%d tBURST=%d tRTRS=%d\n",
			p.TFAW, p.TRRD, p.TCCD, p.TWTR, p.TCAS, p.TCWD, p.TBURST, p.TRTRS)
		fmt.Printf("tREFI=%d tRFC=%d tXP=%d; CPU:bus clock ratio %d\n", p.TREFI, p.TRFC, p.TXP, p.CPUCyclesPerBusCycle)
		fmt.Printf("workloads: %s\n", strings.Join(fsmem.Workloads(), ", "))
		return
	}

	k, ok := config.SchedulerByName(*schedName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -sched %q (options: %s)\n", *schedName, strings.Join(config.SchedulerNames(), ", "))
		os.Exit(2)
	}
	var mix fsmem.Mix
	switch *wl {
	case "mix1":
		mix, err = fsmem.Mix1()
	case "mix2":
		mix, err = fsmem.Mix2()
	default:
		mix, err = fsmem.RateWorkload(*wl, *cores)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	route, err := addr.RoutingByName(*routing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *configOut != "" {
		e := config.Default()
		e.Workload = *wl
		e.Cores = *cores
		e.Scheduler = *schedName
		e.Reads = *reads
		e.Seed = *seed
		e.Prefetch = *prefetch
		e.Refresh = *fsRefresh
		if *channels > 1 {
			e.Channels = *channels
			e.Routing = route.String()
		}
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

	cfg := fsmem.NewConfig(mix, k)
	cfg.TargetReads = *reads
	cfg.Seed = *seed
	cfg.Prefetch = *prefetch
	cfg.RefreshEnabled = *fsRefresh
	if *channels > 1 {
		cfg.Channels = *channels
		cfg.Routing = route
	}
	if *energyOpts {
		cfg.Energy = fsmem.EnergyOpts{SuppressDummies: true, RowBufferBoost: true, PowerDown: true}
	}
	if *weights != "" {
		for _, f := range strings.Split(*weights, ",") {
			var w int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &w); err != nil {
				fmt.Fprintf(os.Stderr, "bad -weights entry %q\n", f)
				os.Exit(2)
			}
			cfg.SLAWeights = append(cfg.SLAWeights, w)
		}
	}

	if *traceOut != "" {
		space, err := addr.SpaceFor(k.Partition(), 0, len(mix.Profiles), cfg.DRAM)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen := workload.NewGenerator(mix.Profiles[0], space, cfg.DRAM, *seed)
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
		fmt.Printf("recorded %d references of %s to %s\n", *traceCount, mix.Profiles[0].Name, *traceOut)
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

	if *configIn != "" {
		f, err := os.Open(*configIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		e, err := config.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = e.ToSimConfig()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
