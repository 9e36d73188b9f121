// Cloud SLA demo (Section 5.1): a hypervisor co-schedules VMs from
// mutually distrustful tenants. The OS picks a spatial partitioning and a
// Fixed Service schedule from the domain count, and every tenant receives a
// fixed, interference-free level of memory service — swapping one tenant's
// workload for a memory hog leaves every other tenant's progress
// bit-identical.
//
//	go run ./examples/cloudsla
package main

import (
	"fmt"
	"log"

	"fsmem"
)

// channels is the Table 1 system's channel count.
const channels = 1

// pickPolicy is the OS allocation decision of Section 4.1: channel
// partitioning when domains fit on channels, rank partitioning up to the
// rank count, then bank partitioning, then triple alternation.
func pickPolicy(domains int, p fsmem.DRAMParams) (fsmem.SchedulerKind, string) {
	totalRanks := channels * p.RanksPerChan
	switch {
	case domains <= channels:
		return fsmem.Baseline, "channel partitioning: domains share nothing, no timing channel to close"
	case domains <= totalRanks:
		return fsmem.FSRankPart, "rank partitioning + FS (l=7): each VM owns its ranks"
	case domains <= totalRanks*p.BanksPerRank:
		return fsmem.FSReorderedBank, "bank partitioning + reordered FS: each VM owns banks"
	default:
		return fsmem.FSNoPartTriple, "no partitioning + triple alternation: no page-coloring burden"
	}
}

func run(mix fsmem.Mix, k fsmem.SchedulerKind) fsmem.Result {
	cfg := fsmem.NewConfig(mix, k)
	cfg.TargetReads = 0
	cfg.MaxBusCycles = 400_000 // fixed wall-clock window: compare progress
	res, err := fsmem.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	p := fsmem.DDR3x1600()
	for _, n := range []int{1, 8, 64, 1024} {
		k, why := pickPolicy(n, p)
		fmt.Printf("%4d tenant VMs -> %-16s %s\n", n, k, why)
	}
	fmt.Println()

	// Eight tenants with heterogeneous SLAs (the paper's mix1 shape).
	tenants, err := fsmem.Mix1()
	if err != nil {
		log.Fatal(err)
	}
	k, _ := pickPolicy(len(tenants.Profiles), p)
	before := run(tenants, k)

	// Tenant 7 deploys a memory hog.
	noisy := tenants
	noisy.Profiles = append([]fsmem.Profile(nil), tenants.Profiles...)
	noisy.Profiles[7] = fsmem.SyntheticWorkload("hog", 50)
	after := run(noisy, k)

	fmt.Printf("scheduler: %s — tenant 7 swaps %q for a memory hog\n\n", k, tenants.Profiles[7].Name)
	fmt.Println("tenant  workload    instructions(before)  instructions(after)  isolated?")
	allIsolated := true
	for d := 0; d < 7; d++ {
		b := before.Run.Domains[d].Instructions
		a := after.Run.Domains[d].Instructions
		iso := b == a
		allIsolated = allIsolated && iso
		fmt.Printf("%6d  %-10s %20d %20d  %v\n", d, tenants.Profiles[d].Name, b, a, iso)
	}
	fmt.Printf("%6d  %-10s %20d %20d  (the hog itself)\n", 7, "->hog",
		before.Run.Domains[7].Instructions, after.Run.Domains[7].Instructions)
	if allIsolated {
		fmt.Println("\nevery other tenant made bit-identical progress: the SLA holds under any neighbor")
	} else {
		fmt.Println("\nISOLATION VIOLATED — this would be a bug in the FS schedule")
	}
}
