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
	"fsmem/internal/parallel"
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
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	exectrace := flag.String("exectrace", "", "write a Go execution trace to this file")
	flag.Parse()

	routing, err := addr.RoutingByName(*routingName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakage:", err)
		os.Exit(2)
	}
	stopProf, err := obs.StartProfiling(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakage:", err)
		os.Exit(2)
	}
	code := run(*attackerName, *schedName, *samples, *seed, *workers, *covert, *jsonOut, *channels, routing)
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "leakage: profiling: %v\n", err)
	}
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

	milestone := int64(10_000)
	total := samples * milestone
	coRunners := []workload.Profile{workload.Synthetic("idle", 0.01), workload.Synthetic("streaming", 45)}

	// The quiet/loud collections are independent; shard them across the
	// pool and assemble output from the ordered results.
	var cells []parallel.Cell[leakage.Profile]
	for _, k := range kinds {
		for _, co := range coRunners {
			k, co := k, co
			cells = append(cells, parallel.Cell[leakage.Profile]{
				Key: fmt.Sprintf("leakage/%v/%s", k, co.Name),
				Run: func(context.Context) (leakage.Profile, error) {
					return leakage.CollectProfile(k, attacker, co, 8, milestone, total, seed, channels, routing)
				},
			})
		}
	}
	profiles, err := parallel.Map(context.Background(), workers, cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("attacker %s, 7 co-runners, sampled every %d instructions\n\n", attacker.Name, milestone)
	for i, k := range kinds {
		quiet, loud := profiles[2*i], profiles[2*i+1]
		div, _ := leakage.Divergence(quiet, loud)
		mi := leakage.MutualInformationBits(leakage.EpochDurations(quiet), leakage.EpochDurations(loud), 16)
		fmt.Printf("== %s ==\n", k)
		fmt.Printf("profiles identical:  %v\n", leakage.Identical(quiet, loud))
		fmt.Printf("max divergence:      %.4f\n", div)
		fmt.Printf("mutual information:  %.4f bits\n", mi)
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
	// The attack mirrors leakage.CovertChannel's intensity modulation so
	// -json and the plain output describe the exact same experiment.
	attack := audit.Attack{
		Name:            "intensity",
		Probe:           workload.Synthetic("probe", 25),
		On:              workload.Synthetic("burst", 40),
		Off:             workload.Synthetic("quiet", 0.01),
		WindowBusCycles: 40_000,
	}
	if !jsonOut {
		fmt.Printf("covert channel: %d-bit message, sender modulates memory intensity per window\n\n", len(message))
	}
	for _, k := range []sim.SchedulerKind{sim.Baseline, sim.FSRankPart} {
		run, err := leakage.RunChannel(k, message, leakage.ChannelParams{
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
