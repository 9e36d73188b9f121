// Command chaos runs the deterministic fault-injection campaign against one
// or more memory scheduling policies and reports, per fault plan, whether
// the always-on runtime monitor detected the fault, proved it harmless, or
// let a victim domain's timing silently change (an undetected leak).
//
// The Fixed Service schedulers must show zero undetected faults — their
// statically proven schedule plus the shadow timing checker catches every
// perturbation that could reach another domain. The non-secure FR-FCFS
// baseline visibly fails: dropped or delayed commands and load spikes
// propagate into other domains' read-delivery times without any monitor
// flag, which is exactly the timing channel the paper closes. Temporal
// Partitioning sits between the two: it isolates domains from each other
// but has no static schedule, so domain-neutral hardware faults (a refresh
// storm, say) shift timing without any flag — reported as a NOTE, not a
// failure.
//
// Usage:
//
//	chaos                         # campaign across every scheduler
//	chaos -sched fs_rp            # one scheduler
//	chaos -workload milc -seed 7  # different traffic and fault seed
//	chaos -j 8                    # shard each campaign across 8 workers
//
// The -j flag bounds the worker pool each campaign's runs are sharded
// across (0 = GOMAXPROCS). Verdicts are byte-identical for every -j
// value: every run is a pure function of its configuration and plan.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"fsmem"
	"fsmem/internal/config"
	"fsmem/internal/obs"
)

func main() {
	schedName := flag.String("sched", "all", "scheduler to attack: "+strings.Join(config.SchedulerNames(), ", ")+", or all")
	wl := flag.String("workload", "milc", "benchmark name (rate mode)")
	cores := flag.Int("cores", 4, "cores / security domains")
	seed := flag.Uint64("seed", 7, "fault-plan seed")
	verbose := flag.Bool("v", false, "print stored violation details for detected faults")
	workers := flag.Int("j", 0, "parallel campaign workers (0 = GOMAXPROCS); verdicts are identical for every value")
	cycles := flag.Int64("cycles", 0, "fixed bus cycles per campaign run (0 = the standard 24k; the nightly CI job raises this)")
	startProf := obs.ProfileFlags(flag.CommandLine, "chaos")
	flag.Parse()

	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	// run does the work so the profilers flush before os.Exit.
	code := run(*schedName, *wl, *cores, *seed, *cycles, *workers, *verbose)
	stopProf()
	os.Exit(code)
}

func run(schedName, wl string, cores int, seed uint64, cycles int64, workers int, verbose bool) int {

	var scheds []string
	if schedName == "all" {
		scheds = config.SchedulerNames()
	} else if _, ok := config.SchedulerByName(schedName); ok {
		scheds = []string{schedName}
	} else {
		fmt.Fprintf(os.Stderr, "unknown -sched %q (options: %s, all)\n", schedName, strings.Join(config.SchedulerNames(), ", "))
		return 2
	}

	mix, err := fsmem.RateWorkload(wl, cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	exit := 0
	for _, name := range scheds {
		k, _ := config.SchedulerByName(name)
		cfg := fsmem.NewConfig(mix, k)
		cfg.Seed = 1
		if cycles > 0 {
			// A fixed-duration config (TargetReads 0, MaxBusCycles set) is kept
			// by the campaign instead of the standard 24k-cycle window.
			cfg.TargetReads = 0
			cfg.MaxBusCycles = cycles
		}
		plans := fsmem.StandardFaultPlans(cores, seed)
		res, err := fsmem.RunFaultCampaignContext(context.Background(), cfg, plans, workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %s: %v\n", name, err)
			exit = 1
			continue
		}
		fmt.Printf("== %s (%d cycles per run) ==\n", res.Scheduler, res.Cycles)
		for _, o := range res.Outcomes {
			fmt.Printf("  %-18s %-10s timing=%-3d schedule=%-3d scheduler=%-3d",
				o.Plan, o.Verdict, o.TimingViolations, o.ScheduleViolations, o.SchedulerViolations)
			if len(o.ChangedDomains) > 0 {
				fmt.Printf(" victim-domains=%v", o.ChangedDomains)
			}
			fmt.Println()
		}
		und := res.Undetected()
		switch {
		case k.IsFS() && und == 0:
			fmt.Printf("  -> PASS: no undetected faults\n\n")
		case k.IsFS():
			fmt.Printf("  -> FAIL: %d undetected faults on a verifiable FS scheduler\n\n", und)
			exit = 1
		case k == fsmem.Baseline && und > 0:
			fmt.Printf("  -> EXPECTED LEAK: %d silent non-interference failures (non-secure baseline)\n\n", und)
		case k == fsmem.Baseline:
			fmt.Printf("  -> note: baseline showed no silent failures on this workload/seed\n\n")
		case und > 0:
			fmt.Printf("  -> NOTE: %d undetected — TP isolates domains but has no static schedule for the monitor to check\n\n", und)
		default:
			fmt.Printf("  -> PASS: no undetected faults (TP, isolation only)\n\n")
		}
		if verbose {
			for _, o := range res.Outcomes {
				if o.Verdict != fsmem.FaultDetected {
					continue
				}
				fmt.Printf("  detail %s: injected %+v\n", o.Plan, o.Injected)
				for _, v := range o.Violations {
					fmt.Printf("    %v\n", v)
				}
			}
		}
	}
	return exit
}
