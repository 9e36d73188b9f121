// Command audit runs the adversarial leakage auditor: a library of
// parameterized covert-channel attackers plus an adaptive search loop
// is thrown at a scheduler, the best strategy is re-certified across
// independent seeds, and the result is emitted as a machine-readable
// LeakageCertificate (verdict SECURE, LEAKY, or FAIL).
//
// Usage:
//
//	audit                         # audit every scheduler
//	audit -sched fs_np            # a single scheduler
//	audit -fault derate-trcd      # inject a timing fault (FS must FAIL)
//	audit -expect secure          # exit 1 unless every verdict is SECURE
//	audit -j 4                    # shard the campaign across 4 workers
//
// One certificate is printed per line on stdout (JSONL); the human
// summary goes to stderr. Certificates are byte-identical for every -j
// value: work is keyed and merged deterministically, never by
// completion order.
//
// Profiling: -cpuprofile, -memprofile, and -exectrace write the
// standard Go profiles (inspect with `go tool pprof` / `go tool trace`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"fsmem"
	"fsmem/internal/audit"
	"fsmem/internal/config"
	"fsmem/internal/obs"
	"fsmem/internal/sim"
)

func main() {
	schedName := flag.String("sched", "all", "scheduler to audit, or \"all\"")
	cores := flag.Int("cores", audit.DefaultDomains, "cores (= security domains)")
	bits := flag.Int("bits", audit.DefaultBits, "covert message length (rounded up to even)")
	window := flag.Int64("window", audit.DefaultWindow, "base signalling window in bus cycles")
	seeds := flag.Int("seeds", audit.DefaultSeeds, "independent certification seeds")
	perms := flag.Int("perms", audit.DefaultPermutations, "permutation-test rounds")
	rounds := flag.Int("rounds", audit.DefaultRounds, "adaptive search refinement rounds")
	seed := flag.Uint64("seed", 42, "base random seed")
	faultName := flag.String("fault", "", "fault plan to inject (anti-vacuity check); see cmd/chaos for names")
	faultSeed := flag.Uint64("faultseed", 7, "fault plan seed")
	channels := flag.Int("channels", 1, "memory-fabric width to audit (1 = classic single channel)")
	routing := flag.String("routing", "colored", "multi-channel routing: colored or interleaved")
	expect := flag.String("expect", "", "exit 1 unless every verdict matches (secure|leaky|fail)")
	workers := flag.Int("j", 0, "parallel campaign workers (0 = GOMAXPROCS); certificates are identical for every value")
	verbose := flag.Bool("v", false, "log campaign progress to stderr")
	startProf := obs.ProfileFlags(flag.CommandLine, "audit")
	flag.Parse()

	route, err := fsmem.RoutingByName(*routing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(2)
	}
	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(2)
	}
	o := audit.Options{
		Domains:         *cores,
		Bits:            *bits,
		WindowBusCycles: *window,
		Seed:            *seed,
		Seeds:           *seeds,
		Permutations:    *perms,
		Rounds:          *rounds,
		Workers:         *workers,
		FaultPlan:       *faultName,
		FaultSeed:       *faultSeed,
		Channels:        *channels,
		Routing:         route,
	}
	if *verbose {
		o.Progress = func(stage string, done, total int) {
			fmt.Fprintf(os.Stderr, "audit: %-12s %d/%d\n", stage, done, total)
		}
	}
	code := run(*schedName, *expect, o)
	stopProf()
	os.Exit(code)
}

func run(schedName, expect string, o audit.Options) int {
	var want audit.Verdict
	switch strings.ToLower(expect) {
	case "":
	case "secure":
		want = audit.VerdictSecure
	case "leaky":
		want = audit.VerdictLeaky
	case "fail":
		want = audit.VerdictFail
	default:
		fmt.Fprintf(os.Stderr, "unknown -expect %q (want secure, leaky, or fail)\n", expect)
		return 2
	}

	// -sched all audits in the scheduler enum order, Baseline first, so the
	// JSONL order is stable across releases.
	var kinds []sim.SchedulerKind
	for k := sim.Baseline; k <= sim.FSNoPartTriple; k++ {
		kinds = append(kinds, k)
	}
	if schedName != "all" {
		k, ok := config.SchedulerByName(schedName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -sched %q\n", schedName)
			return 2
		}
		kinds = []sim.SchedulerKind{k}
	}

	mismatched := false
	for _, k := range kinds {
		cert, err := audit.Run(context.Background(), k, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			return 1
		}
		b, err := audit.MarshalCertificate(cert)
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			return 1
		}
		os.Stdout.Write(b)
		fmt.Fprintf(os.Stderr, "%-16s %-6s  best=%s ber=%.3f mi=%.3f(p=%.3f) ks=%.3f(p=%.3f) cap=%.0fb/s viol=%d attacks=%d\n",
			cert.Scheduler, cert.Verdict, cert.BestAttack.Name,
			cert.Stats.BitErrorRate, cert.Stats.MIBits, cert.Stats.MIPValue,
			cert.Stats.KSStat, cert.Stats.KSPValue,
			cert.CapacityBitsPerSec, cert.MonitorViolations, len(cert.Attacks))
		if want != "" && cert.Verdict != want {
			mismatched = true
		}
	}
	if mismatched {
		fmt.Fprintf(os.Stderr, "audit: verdict mismatch: expected every scheduler to be %s\n", strings.ToUpper(expect))
		return 1
	}
	return 0
}
