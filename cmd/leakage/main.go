// Command leakage runs the paper's security experiments: the Figure 4
// execution profiles (an attacker timed against idle vs memory-intensive
// co-runners), a mutual-information estimate of the channel, and a covert
// channel encode/decode attempt.
//
// Usage:
//
//	leakage                         # Figure 4 profiles + MI, baseline vs FS_RP
//	leakage -sched fs_np_optimized  # any scheduler
//	leakage -covert                 # covert channel bit-error-rate comparison
//	leakage -covert -json           # ... as machine-readable certificate fragments
//	leakage -j 4                    # shard profile collection across 4 workers
//
// The -j flag bounds the worker pool the profile collections are
// sharded across (0 = GOMAXPROCS). Output is byte-identical for every
// value: results are merged in input order, never completion order.
//
// Profiling: -cpuprofile, -memprofile, and -exectrace write the
// standard Go profiles (inspect with `go tool pprof` / `go tool trace`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fsmem/internal/addr"
	"fsmem/internal/audit"
	"fsmem/internal/config"
	"fsmem/internal/leakage"
	"fsmem/internal/obs"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

func main() {
	attackerName := flag.String("attacker", "mcf", "attacker benchmark (Figure 4 uses mcf)")
	schedName := flag.String("sched", "", "single scheduler to test (default: baseline and fs_rp)")
	samples := flag.Int64("samples", 40, "profile samples (x10K instructions)")
	covert := flag.Bool("covert", false, "run the covert-channel experiment instead")
	jsonOut := flag.Bool("json", false, "with -covert, emit one certificate fragment per scheduler on stdout (the cmd/audit schema)")
	seed := flag.Uint64("seed", 42, "random seed")
	channels := flag.Int("channels", 1, "memory channels (1 = classic single-channel system)")
	routingName := flag.String("routing", "colored", "multi-channel request routing: colored or interleaved")
	workers := flag.Int("j", 0, "parallel profile-collection workers (0 = GOMAXPROCS); output is identical for every value")
	startProf := obs.ProfileFlags(flag.CommandLine, "leakage")
	flag.Parse()

	routing, err := addr.RoutingByName(*routingName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakage:", err)
		os.Exit(2)
	}
	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakage:", err)
		os.Exit(2)
	}
	code := run(*attackerName, *schedName, *samples, *seed, *workers, *covert, *jsonOut, *channels, routing)
	stopProf()
	os.Exit(code)
}

func run(attackerName, schedName string, samples int64, seed uint64, workers int, covert, jsonOut bool, channels int, routing addr.Routing) int {
	if covert {
		return runCovert(seed, jsonOut, channels, routing)
	}

	attacker, err := workload.ByName(attackerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	kinds := []sim.SchedulerKind{sim.Baseline, sim.FSRankPart}
	if schedName != "" {
		k, ok := config.SchedulerByName(schedName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -sched %q\n", schedName)
			return 2
		}
		kinds = []sim.SchedulerKind{k}
	}

	cmp, err := leakage.Compare(context.Background(), leakage.CompareParams{
		Attacker: attacker, Domains: 8, Schedulers: kinds, Samples: samples, Seed: seed,
		Channels: channels, Routing: routing, Workers: workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("attacker %s, 7 co-runners, sampled every %d instructions\n\n", attacker.Name, leakage.Milestone)
	for _, c := range cmp {
		quiet, loud := c.Quiet, c.Loud
		div, _ := leakage.Divergence(quiet, loud)
		fmt.Printf("== %s ==\n", c.Scheduler)
		fmt.Printf("profiles identical:  %v\n", leakage.Identical(quiet, loud))
		fmt.Printf("max divergence:      %.4f\n", div)
		fmt.Printf("mutual information:  %.4f bits\n", c.MutualInformationBits)
		fmt.Println("instr(x10K)  cycles(idle co-runners)  cycles(streaming co-runners)")
		step := len(quiet.CyclesAt) / 8
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(quiet.CyclesAt) && i < len(loud.CyclesAt); i += step {
			fmt.Printf("%10d  %22d  %27d\n", (i + 1), quiet.CyclesAt[i], loud.CyclesAt[i])
		}
		fmt.Println()
	}
	return 0
}

func runCovert(seed uint64, jsonOut bool, channels int, routing addr.Routing) int {
	message := []bool{true, false, true, true, false, false, true, false, true, true, false, true, false, false, true, false}
	// The attack runs leakage.CovertChannel's loads, so -json and the
	// plain output describe the exact same experiment.
	probe, burst, quiet := leakage.CovertLoads()
	attack := audit.Attack{Name: "intensity", Probe: probe, On: burst, Off: quiet, WindowBusCycles: 40_000}
	if !jsonOut {
		fmt.Printf("covert channel: %d-bit message, sender modulates memory intensity per window\n\n", len(message))
	}
	for _, k := range []sim.SchedulerKind{sim.Baseline, sim.FSRankPart} {
		run, err := leakage.RunChannel(context.Background(), k, message, leakage.ChannelParams{
			Domains:         8,
			Probe:           attack.Probe,
			On:              attack.On,
			Off:             attack.Off,
			WindowBusCycles: attack.WindowBusCycles,
			Seed:            seed,
			Channels:        channels,
			Routing:         routing,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if jsonOut {
			frag := audit.FragmentFor(attack, run, audit.DefaultPermutations, seed)
			b, err := audit.MarshalFragment(frag)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			os.Stdout.Write(b)
			continue
		}
		res := run.Result
		fmt.Printf("%-16s bit error rate %.2f (%d/%d wrong)\n", res.Scheduler, res.BitErrorRate, res.Errors, res.Bits)
	}
	if !jsonOut {
		fmt.Println("\n0.00 = perfect covert channel; ~0.50 = receiver learns nothing")
	}
	return 0
}
