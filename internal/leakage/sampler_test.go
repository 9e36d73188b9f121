package leakage

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/fsmerr"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// stepProfile is the Figure 4 sampler as a plain bus-cycle loop: one
// System.Step and one DomainInstructions read per cycle, recording each
// milestone at the first cycle the attacker's count reaches it. It is the
// reference collectProfile must match on every shape.
func stepProfile(ctx context.Context, k sim.SchedulerKind, attacker, coRunner workload.Profile,
	domains int, milestone, totalInstr int64, seed uint64,
	channels int, routing addr.Routing, mutate func(*sim.Config)) (Profile, error) {
	cfg := profileConfig(k, attacker, coRunner, domains, seed, channels, routing, mutate)
	sys, err := sim.New(cfg)
	if err != nil {
		return Profile{}, err
	}
	prof := Profile{Scheduler: k.String(), CoRunner: coRunner.Name, Milestone: milestone}
	next := milestone
	cpuPerBus := int64(cfg.DRAM.CPUCyclesPerBusCycle)
	for cycle := int64(0); cycle < cfg.MaxBusCycles; cycle++ {
		if cycle%8192 == 0 && ctx.Err() != nil {
			return Profile{}, fsmerr.Wrap(fsmerr.CodeCanceled, "leakage.CollectProfile", ctx.Err())
		}
		sys.Step()
		retired := sys.DomainInstructions(0)
		for retired >= next {
			prof.CyclesAt = append(prof.CyclesAt, (cycle+1)*cpuPerBus)
			prof.Instruction = append(prof.Instruction, next)
			next += milestone
		}
		if retired >= totalInstr {
			return prof, nil
		}
	}
	return prof, fmt.Errorf("leakage: attacker retired only %d of %d instructions before the cycle budget",
		sys.DomainInstructions(0), totalInstr)
}

// TestCollectProfileMatchesStepLoop pins the kernel-driven sampler to the
// per-cycle loop: equal milestone cycles and instructions, and equal
// errors, for leaky and secure schedulers against idle and streaming
// co-runners on each fabric shape, for milestone/budget shapes where
// several milestones fall in one bus cycle or the budget is no multiple
// of the milestone (or 0), and for an exhausted cycle budget.
func TestCollectProfileMatchesStepLoop(t *testing.T) {
	type shape struct{ milestone, total int64 }
	type fabric struct {
		channels int
		routing  addr.Routing
	}
	type tcase struct {
		sched  sim.SchedulerKind
		co     workload.Profile
		fabric fabric
		shape  shape
		mutate func(*sim.Config)
		name   string
	}
	idle, streaming := workload.Synthetic("idle", 0.01), workload.Synthetic("streaming", 45)
	var cases []tcase
	for _, k := range []sim.SchedulerKind{sim.Baseline, sim.FSRankPart, sim.TPBank} {
		for _, co := range []workload.Profile{idle, streaming} {
			for _, f := range []fabric{{1, addr.RouteColored}, {2, addr.RouteColored}, {2, addr.RouteInterleaved}} {
				cases = append(cases, tcase{sched: k, co: co, fabric: f, shape: shape{10_000, 60_000},
					name: fmt.Sprintf("%v/%s/%dch-%v", k, co.Name, f.channels, f.routing)})
			}
		}
	}
	for _, sh := range []shape{{1, 200}, {3, 2}, {7, 5003}, {1000, 0}, {1, 0}, {16, 4000}, {10_000, 15_000}} {
		for _, k := range []sim.SchedulerKind{sim.Baseline, sim.FSRankPart} {
			cases = append(cases, tcase{sched: k, co: streaming, fabric: fabric{1, addr.RouteColored}, shape: sh,
				name: fmt.Sprintf("%v/shape-%d-%d", k, sh.milestone, sh.total)})
		}
	}
	for _, budget := range []int64{0, 1, 3000} {
		cases = append(cases, tcase{sched: sim.Baseline, co: streaming, fabric: fabric{2, addr.RouteColored},
			shape: shape{100, 1_000_000}, mutate: func(c *sim.Config) { c.MaxBusCycles = budget },
			name: fmt.Sprintf("budget-%d", budget)})
	}
	att := attacker(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(collect func(context.Context, sim.SchedulerKind, workload.Profile, workload.Profile,
				int, int64, int64, uint64, int, addr.Routing, func(*sim.Config)) (Profile, error)) (Profile, string) {
				prof, err := collect(context.Background(), c.sched, att, c.co, 8, c.shape.milestone, c.shape.total,
					99, c.fabric.channels, c.fabric.routing, c.mutate)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				return prof, msg
			}
			want, wantErr := run(stepProfile)
			got, gotErr := run(collectProfile)
			if gotErr != wantErr {
				t.Fatalf("error %q, the step loop's %q", gotErr, wantErr)
			}
			if c.mutate != nil && wantErr == "" {
				t.Fatal("the exhausted budget raised no error, so the case checks nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("profile differs from the step loop's\n got cycles %v\n     instr  %v\nwant cycles %v\n     instr  %v",
					got.CyclesAt, got.Instruction, want.CyclesAt, want.Instruction)
			}
		})
	}
}
