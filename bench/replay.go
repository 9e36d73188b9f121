package main

import (
	"context"
	"fmt"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/cpu"
	"fsmem/internal/dram"
	"fsmem/internal/mem"
	"fsmem/internal/parallel"
	"fsmem/internal/sched"
	"fsmem/internal/sim"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// replayBudget is how much measured time each single-layer replay gathers.
const replayBudget = 150 * time.Millisecond

// tickDepths are the queue depths the scheduler replay holds.
var tickDepths = []int{8, 32, 64}

// issued is one command as the channel accepted it.
type issued struct {
	cmd        dram.Command
	cycle      int64
	suppressed bool
}

// replayLayers runs one extra, untimed unit of cfg that records its
// command stream and exact counters, then times single layers through
// their public functions on inputs taken from that unit and from cfg's
// own address generators.
func replayLayers(ctx context.Context, cfg sim.Config, m metricSet, tr *tracer) error {
	streams, err := recordUnit(ctx, cfg, m, tr)
	if err != nil {
		return err
	}
	ns, err := timeOps(func() (int, time.Duration, error) { return replayChannel(cfg.DRAM, streams) })
	if err != nil {
		return err
	}
	m.add("dram.ready_issue_ns_per_cmd", ns, "ns", 1)
	if ns, err = timeOps(func() (int, time.Duration, error) { return replayChecker(cfg.DRAM, streams) }); err != nil {
		return err
	}
	m.add("dram.checker_ns_per_cmd", ns, "ns", 1)
	gens, err := generators(cfg)
	if err != nil {
		return err
	}
	for _, q := range tickDepths {
		if ns, err = timeOps(func() (int, time.Duration, error) { return replayTicks(cfg, gens, q) }); err != nil {
			return err
		}
		m.add(fmt.Sprintf("sched.tick_ns.q%d", q), ns, "ns", 1)
	}
	if ns, err = timeOps(func() (int, time.Duration, error) { return replayCycles(gens[0]) }); err != nil {
		return err
	}
	m.add("cpu.cycle_ns", ns, "ns", 1)
	if ns, err = timeOps(func() (int, time.Duration, error) { return replaySkips(gens[0]) }); err != nil {
		return err
	}
	m.add("cpu.skip_ns_per_kcycle", ns*1000, "ns", 1)
	if ns, err = timeOps(func() (int, time.Duration, error) { return replayRefs(gens[0]) }); err != nil {
		return err
	}
	m.add("workload.ns_per_ref", ns, "ns", 1)
	return nil
}

// recordUnit simulates cfg once with every channel's issued commands
// recorded, and reports the unit's exact counters.
func recordUnit(ctx context.Context, cfg sim.Config, m metricSet, tr *tracer) ([][]issued, error) {
	var streams [][]issued
	sys, res, took, err := runSim(ctx, cfg, tr, replayUnit, func(sys *sim.System) {
		ctls := []*mem.Controller{sys.Controller()}
		if f := sys.Fabric(); f != nil {
			ctls = f.Controllers()
		}
		streams = make([][]issued, len(ctls))
		for c, ctl := range ctls {
			ctl.Chan.OnIssue = func(cmd dram.Command, cycle int64, suppressed bool) {
				streams[c] = append(streams[c], issued{cmd, cycle, suppressed})
			}
		}
	})
	if err := simFailure(res, err); err != nil {
		return nil, err
	}

	_, skipped := sys.FastForward()
	dense := res.Run.BusCycles - skipped
	var hits, accesses int64
	for _, d := range res.Run.Domains {
		hits += d.RowHits
		accesses += d.Reads + d.Writes
	}
	mon := res.Monitor
	m.add("dram.cmds_per_unit", float64(mon.Commands), "count", 1)
	m.add("dram.row_hit_frac", float64(hits)/float64(max(accesses, 1)), "frac", 1)
	m.add("core.dummy_frac", res.Run.DummyFraction(), "frac", 1)
	m.add("fault.violations", float64(mon.TimingViolations+mon.ScheduleViolations+mon.SchedulerViolations), "count", 1)
	m.add("sim.ff_skip_frac", float64(skipped)/float64(max(res.Run.BusCycles, 1)), "frac", 1)
	m.add("sim.dense_steps", float64(dense), "count", 1)
	m.add("sim.ns_per_dense_step", float64(took.Nanoseconds())/float64(max(dense, 1)), "ns", 1)
	return streams, nil
}

// timeOps repeats pass until the passes' measured time reaches
// replayBudget and returns nanoseconds per operation. Each pass does its
// own untimed set-up and reports the operations it timed.
func timeOps(pass func() (ops int, took time.Duration, err error)) (float64, error) {
	var ops int
	var took time.Duration
	for took < replayBudget {
		n, d, err := pass()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("replay timed no operations")
		}
		ops += n
		took += d
	}
	return float64(took.Nanoseconds()) / float64(ops), nil
}

// replayChannel re-issues each recorded stream on a fresh channel with
// Channel.Ready and Channel.IssueEx; every command must still be legal.
func replayChannel(p dram.Params, streams [][]issued) (int, time.Duration, error) {
	chans := make([]*dram.Channel, len(streams))
	for c := range chans {
		chans[c] = dram.NewChannel(p)
	}
	ops := 0
	t0 := time.Now()
	for c, stream := range streams {
		ch := chans[c]
		for _, x := range stream {
			if !ch.Ready(x.cmd, x.cycle) {
				return 0, 0, fmt.Errorf("channel %d refused replayed %v at cycle %d", c, x.cmd, x.cycle)
			}
			if err := ch.IssueEx(x.cmd, x.cycle, x.suppressed); err != nil {
				return 0, 0, fmt.Errorf("channel %d: %w", c, err)
			}
		}
		ops += len(stream)
	}
	return ops, time.Since(t0), nil
}

// replayChecker feeds each recorded stream through a fresh independent
// timing checker, which must find no violation.
func replayChecker(p dram.Params, streams [][]issued) (int, time.Duration, error) {
	checkers := make([]*dram.Checker, len(streams))
	for c := range checkers {
		checkers[c] = dram.NewChecker(p)
	}
	ops := 0
	t0 := time.Now()
	for c, stream := range streams {
		ck := checkers[c]
		for _, x := range stream {
			ck.Feed(x.cmd, x.cycle)
		}
		ops += len(stream)
	}
	took := time.Since(t0)
	for c, ck := range checkers {
		if !ck.Ok() {
			return 0, 0, fmt.Errorf("checker rejected channel %d's stream: %v", c, ck.Violations()[0])
		}
	}
	return ops, took, nil
}

// generators builds each domain's address generator for cfg's workload
// and partitioning, as sim.New would.
func generators(cfg sim.Config) ([]*workload.Generator, error) {
	domains := len(cfg.Mix.Profiles)
	gens := make([]*workload.Generator, domains)
	for d := range gens {
		space, err := addr.SpaceFor(cfg.Scheduler.Partition(), d, domains, cfg.DRAM)
		if err != nil {
			return nil, err
		}
		seed := parallel.DeriveSeed(cfg.Seed, fmt.Sprintf("bench/replay/gen/%d", d))
		gens[d] = workload.NewGenerator(cfg.Mix.Profiles[d], space, cfg.DRAM, seed)
	}
	return gens, nil
}

// replayTicks times Baseline scheduling on a controller whose queues are
// topped back up to depth requests (from the workload's own address
// streams) before every Controller.Tick.
func replayTicks(cfg sim.Config, gens []*workload.Generator, depth int) (int, time.Duration, error) {
	const ticks = 20_000
	mcfg := mem.DefaultConfig(len(gens))
	ctl := mem.NewController(cfg.DRAM, mcfg, sched.NewBaseline(cfg.DRAM, mcfg))
	var took time.Duration
	d := 0
	for t := 0; t < ticks; t++ {
		for tries := 0; ctl.PendingReads()+ctl.PendingWrites() < depth; tries++ {
			if tries > 8*len(gens)*depth {
				return 0, 0, fmt.Errorf("queues cannot hold %d requests", depth)
			}
			ref := gens[d].Next()
			if ref.Write {
				ctl.EnqueueWrite(d, ref.Addr)
			} else {
				ctl.EnqueueRead(d, ref.Addr, nil)
			}
			d = (d + 1) % len(gens)
		}
		t0 := time.Now()
		ctl.Tick()
		took += time.Since(t0)
	}
	return ticks, took, nil
}

// acceptAll is a memory system that accepts every request and completes
// reads at once, so a core never stalls on it.
type acceptAll struct{}

func (acceptAll) EnqueueRead(_ int, _ dram.Address, done func()) bool { done(); return true }
func (acceptAll) EnqueueWrite(int, dram.Address) bool                 { return true }

// replayCycles times Core.Cycle on the workload's reference stream.
func replayCycles(g *workload.Generator) (int, time.Duration, error) {
	const cycles = 200_000
	c := cpu.NewCore(0, g, acceptAll{}, &stats.Domain{})
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		c.Cycle()
	}
	return cycles, time.Since(t0), nil
}

// replaySkips advances a core by the fast-forward path — NextInteraction,
// Skip to just before the interaction, one Cycle — and reports CPU cycles
// advanced.
func replaySkips(g *workload.Generator) (int, time.Duration, error) {
	const cycles = 2_000_000
	c := cpu.NewCore(0, g, acceptAll{}, &stats.Domain{})
	done := 0
	t0 := time.Now()
	for done < cycles {
		k := c.NextInteraction()
		if k == cpu.Forever {
			return 0, 0, fmt.Errorf("core stalled with an always-accepting memory")
		}
		if k > 1 {
			c.Skip(k - 1)
			done += int(k - 1)
		}
		c.Cycle()
		done++
	}
	return done, time.Since(t0), nil
}

// replayRefs times the address generator alone.
func replayRefs(g trace.Stream) (int, time.Duration, error) {
	const refs = 200_000
	t0 := time.Now()
	for i := 0; i < refs; i++ {
		g.Next()
	}
	return refs, time.Since(t0), nil
}
