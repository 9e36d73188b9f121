// Command pipeline prints the paper's static schedules: the solver table
// for every anchor/partitioning combination (Sections 3-4) and Figure 1/2
// style command/data bus occupancy diagrams for any FS variant.
//
// Usage:
//
//	pipeline -solve                 # minimal l for every anchor/mode
//	pipeline -solve -ddr4           # the same on DDR4-2400
//	pipeline -mode rp               # Figure 1: rank-partitioned pipeline
//	pipeline -mode np -intervals 2  # Figure 2: no-partitioning pipelines
//
// Profiling: -cpuprofile, -memprofile, and -exectrace write the
// standard Go profiles (inspect with `go tool pprof` / `go tool trace`).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/obs"
)

func main() {
	solve := flag.Bool("solve", false, "print the minimal-l solver table and exit")
	ddr4 := flag.Bool("ddr4", false, "use DDR4-2400 (bank groups) instead of DDR3-1600")
	mode := flag.String("mode", "rp", "pipeline to draw: rp, bp, reordered, np, triple")
	domains := flag.Int("threads", 8, "number of threads / security domains")
	intervals := flag.Int("intervals", 1, "number of Q-cycle intervals to draw")
	pattern := flag.String("pattern", "rwrrrrww", "per-thread transaction kinds (r/w), cycled to the thread count")
	startProf := obs.ProfileFlags(flag.CommandLine, "pipeline")
	flag.Parse()

	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(2)
	}
	code := run(*solve, *ddr4, *mode, *domains, *intervals, *pattern)
	stopProf()
	os.Exit(code)
}

// run prints the solver table or draws the mode's pipeline, and returns
// the exit code.
func run(solve, ddr4 bool, mode string, domains, intervals int, pattern string) int {
	p := dram.DDR3_1600()
	if ddr4 {
		p = dram.DDR4_2400()
	}
	if solve {
		printSolverTable(p, ddr4)
		if ddr4 {
			if l, err := core.MinLRotation(p.BankGroups, core.FixedRAS, p); err == nil {
				fmt.Printf("%d-way bank-group rotation (no partitioning): l=%d\n", p.BankGroups, l)
			}
		}
		for n := 1; n <= 4; n++ {
			if plan, err := core.SolveConsecutive(n, p); err == nil {
				fmt.Printf("consecutive transactions: %v\n", plan)
			}
		}
		return 0
	}

	variant, ok := map[string]core.Variant{
		"rp":        core.FSRankPart,
		"bp":        core.FSBankPart,
		"reordered": core.FSReorderedBank,
		"np":        core.FSNoPart,
		"triple":    core.FSNoPartTriple,
	}[mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -mode %q\n", mode)
		return 2
	}

	writes := make([]bool, domains)
	for i := range writes {
		writes[i] = pattern[i%len(pattern)] == 'w'
	}
	cfg := core.Config{Variant: variant, Domains: domains, Seed: 1}
	cmds, fs, err := core.RecordPipeline(p, cfg, writes, intervals+2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if errs := core.VerifyPipeline(p, cmds); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "PIPELINE NOT CONFLICT-FREE: %v\n", errs[0])
		return 1
	}

	fmt.Printf("%s: l = %d cycles, Q = %d cycles (%d threads)\n", variant, fs.L(), fs.Q(), domains)
	fmt.Printf("peak data-bus utilization: %.1f%%\n", peakUtil(variant, fs, domains, p)*100)
	fmt.Printf("verified conflict-free: %d commands, 0 violations\n\n", len(cmds))
	// Draw a steady-state window (skip the first interval's fill).
	from := fs.Q()
	to := from + fs.Q()*int64(intervals)
	if to-from > 400 {
		to = from + 400
		fmt.Printf("(window truncated to 400 cycles)\n")
	}
	fmt.Print(core.RenderDiagram(p, cmds, from, to))
	return 0
}

func peakUtil(v core.Variant, fs *core.FS, domains int, p dram.Params) float64 {
	perInterval := domains * p.TBURST
	if v == core.FSNoPartTriple {
		perInterval *= 3
	}
	return float64(perInterval) / float64(fs.Q())
}

// paperL is the paper's l for the DDR3-1600 Table 1 timings.
var paperL = map[string]string{
	"rank/fixed-periodic-data": "7 (§3.1)",
	"rank/fixed-periodic-RAS":  "12 (§3.1)",
	"rank/fixed-periodic-CAS":  "12 (§3.1)",
	"bank/fixed-periodic-data": "21 (Eq. 4b)",
	"bank/fixed-periodic-RAS":  "15 (§4.2)",
	"none/fixed-periodic-RAS":  "43 (§4.3)",
}

// printSolverTable prints the solver table; the paper's column only
// appears for DDR3-1600, the part the paper solved.
func printSolverTable(p dram.Params, ddr4 bool) {
	if ddr4 {
		fmt.Println("Minimal conflict-free slot spacing l (DDR4-2400)")
		fmt.Println("mode/anchor                                  l")
	} else {
		fmt.Println("Minimal conflict-free slot spacing l (DDR3-1600, Table 1 timings)")
		fmt.Println("mode/anchor                                  l   paper")
	}
	table := core.SolverTable(p)
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if ddr4 {
			fmt.Printf("%-42s %3d\n", k, table[k])
		} else {
			fmt.Printf("%-42s %3d   %s\n", k, table[k], paperL[k])
		}
	}
	for _, mode := range []addr.PartitionKind{addr.PartitionRank, addr.PartitionBank, addr.PartitionNone} {
		a, l, err := core.BestAnchor(mode, p)
		if err != nil {
			fmt.Printf("best[%v]: %v\n", mode, err)
			continue
		}
		fmt.Printf("best anchor for %-8v partitioning: %v (l=%d)\n", mode, a, l)
	}
}
