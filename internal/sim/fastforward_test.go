package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/mem"
	"fsmem/internal/obs"
	"fsmem/internal/sched"
	"fsmem/internal/stats"
	"fsmem/internal/workload"
)

// diffLoops runs the same configuration under the dense loop and the
// fast-forward kernel and fails unless the full Results agree bit for bit —
// statistics, monitor report (per-domain command-trace hashes), FS
// counters, the observability snapshot, and every trace event's cycle
// stamp. This is the kernel's proof obligation (DESIGN.md §13): horizons
// may be early, never late.
func diffLoops(t *testing.T, cfg Config) {
	t.Helper()
	dense := cfg
	dense.DenseLoop = true
	a, err := Simulate(dense)
	if err != nil {
		t.Fatal(err)
	}
	fast := cfg
	fast.DenseLoop = false
	b, err := Simulate(fast)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, a, b, cfg.Observe != nil)
}

// diffResults fails unless the dense-loop Result a and the fast-forward
// Result b agree bit for bit (the comparison diffLoops makes).
func diffResults(t *testing.T, a, b Result, observed bool) {
	t.Helper()
	if !reflect.DeepEqual(a.Run, b.Run) {
		t.Errorf("run statistics diverged between dense and fast-forward loops:\ndense %+v\nfast  %+v", a.Run, b.Run)
	}
	if !reflect.DeepEqual(a.Monitor, b.Monitor) {
		t.Error("monitor reports (command-trace hashes, verdicts) diverged between loops")
	}
	if !reflect.DeepEqual(a.FS, b.FS) {
		t.Error("FS counters diverged between loops")
	}
	if a.Truncated != b.Truncated || a.TruncateReason != b.TruncateReason {
		t.Errorf("truncation diverged: dense (%v, %q) vs fast (%v, %q)",
			a.Truncated, a.TruncateReason, b.Truncated, b.TruncateReason)
	}
	if len(a.PerChannel) != len(b.PerChannel) {
		t.Fatalf("per-channel result counts diverged: dense %d vs fast %d", len(a.PerChannel), len(b.PerChannel))
	}
	for c := range a.PerChannel {
		if !reflect.DeepEqual(a.PerChannel[c], b.PerChannel[c]) {
			t.Errorf("channel %d result diverged between loops:\ndense %+v\nfast  %+v",
				c, a.PerChannel[c].Run, b.PerChannel[c].Run)
		}
	}
	if observed {
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Error("metrics snapshots diverged between loops")
		}
		ae, be := a.Trace.Events(), b.Trace.Events()
		if !reflect.DeepEqual(ae, be) {
			t.Errorf("trace events diverged between loops: dense %d events, fast %d events", len(ae), len(be))
		}
		if a.Trace.Dropped() != b.Trace.Dropped() {
			t.Errorf("trace drop counts diverged: dense %d vs fast %d", a.Trace.Dropped(), b.Trace.Dropped())
		}
	}
}

func allKinds() []SchedulerKind {
	return []SchedulerKind{Baseline, TPBank, TPNone, FSRankPart, FSBankPart, FSReorderedBank, FSNoPart, FSNoPartTriple}
}

// TestFastForwardEquivalence sweeps every scheduler kind over a
// memory-heavy and an idle-heavy mix with full observability attached and
// diffs the complete Result against the dense loop.
func TestFastForwardEquivalence(t *testing.T) {
	for _, mixName := range []string{"milc", "xalancbmk"} {
		mix, err := workload.Rate(mixName, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range allKinds() {
			k := k
			t.Run(mixName+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(mix, k)
				cfg.TargetReads = 1500
				cfg.Observe = &obs.Options{}
				diffLoops(t, cfg)
			})
		}
	}
}

// TestFastForwardEquivalenceMultiChannel extends the dense-vs-fast-forward
// proof obligation to the fabric: 2- and 4-channel systems in both routing
// modes must produce byte-identical merged AND per-channel Results under
// either loop. Multi-channel horizons fold every channel's NextEvent and
// every core's next interaction into one jump; a single late component
// would shift cycles on one channel and show up here.
func TestFastForwardEquivalenceMultiChannel(t *testing.T) {
	for _, mixName := range []string{"milc", "xalancbmk"} {
		mix, err := workload.Rate(mixName, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{2, 4} {
			for _, routing := range []addr.Routing{addr.RouteColored, addr.RouteInterleaved} {
				for _, k := range []SchedulerKind{Baseline, TPBank, FSRankPart, FSReorderedBank} {
					channels, routing, k := channels, routing, k
					name := fmt.Sprintf("%s/%dch-%s/%s", mixName, channels, routing, k)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig(mix, k)
						cfg.TargetReads = 600
						cfg.Channels = channels
						cfg.Routing = routing
						cfg.Observe = &obs.Options{}
						diffLoops(t, cfg)
					})
				}
			}
		}
	}
}

// FuzzFabricFastForward fuzzes the dense-vs-fast-forward equivalence over
// seeds, widths (1, 2 and 4 channels: every width runs the same loop),
// routing modes, and scheduler kinds with a small read budget — the
// sim-level counterpart of cpu.FuzzNextEvent's fanout mode.
func FuzzFabricFastForward(f *testing.F) {
	f.Add(uint64(1), uint8(0), false, uint8(0))
	f.Add(uint64(2), uint8(0), true, uint8(2))
	f.Add(uint64(3), uint8(1), false, uint8(2))
	f.Add(uint64(0xfab), uint8(1), true, uint8(1))
	f.Add(uint64(5), uint8(2), true, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, interleaved bool, sched uint8) {
		kinds := []SchedulerKind{Baseline, TPBank, FSRankPart}
		mix, err := workload.Rate("xalancbmk", 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(mix, kinds[int(sched)%len(kinds)])
		cfg.Seed = seed
		cfg.TargetReads = 200
		cfg.MaxBusCycles = 2_000_000
		cfg.Channels = []int{1, 2, 4}[int(width)%3]
		cfg.Routing = addr.RouteColored
		if interleaved {
			cfg.Routing = addr.RouteInterleaved
		}
		diffLoops(t, cfg)
	})
}

// TestStepDenseEquivalence runs the dense and the default loop side by
// side through System.Step, Figure 4's sampling path: on every sampled bus
// cycle each domain must have retired exactly what the dense loop's
// domain retired, and the runs finished from there must agree bit for
// bit.
func TestStepDenseEquivalence(t *testing.T) {
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 0
	cfg.MaxBusCycles = 60_000
	cfg.Observe = &obs.Options{}
	var sys [2]*System
	for i, dense := range []bool{true, false} {
		c := cfg
		c.DenseLoop = dense
		if sys[i], err = New(c); err != nil {
			t.Fatal(err)
		}
	}
	sameRetired := func(when string) {
		t.Helper()
		for d := range mix.Profiles {
			if a, b := sys[0].DomainInstructions(d), sys[1].DomainInstructions(d); a != b {
				t.Fatalf("%s: domain %d retired %d instructions under the dense loop, %d under event-driven cores", when, d, a, b)
			}
		}
	}
	for i := 0; i < 20_000; i++ {
		for _, s := range sys {
			s.Step()
		}
		if i%997 == 0 {
			sameRetired(fmt.Sprintf("bus cycle %d", i+1))
		}
	}
	diffResults(t, sys[0].Run(), sys[1].Run(), true)
}

// TestStepDeliversSpikes pins that a system driven by Step delivers a
// fault plan's queue-pressure spikes as Run does: stepping a spiked
// system for as many bus cycles as a fixed-length Run lasts must give the
// same Result, spike reads included.
func TestStepDeliversSpikes(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 0
	cfg.MaxBusCycles = 3000
	cfg.Fault = &fault.Plan{Name: "spike", Seed: 7,
		Loads: []fault.LoadFault{{Kind: fault.LoadQueueSpike, Domain: 1, AtCycle: 1000, Count: 24}}}
	run, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < cfg.MaxBusCycles; i++ {
		sys.Step()
	}
	for _, sp := range sys.lanes[0].spikes {
		if sp.next != len(sp.addrs) {
			t.Errorf("Step delivered %d of the spike's %d reads", sp.next, len(sp.addrs))
		}
	}
	diffResults(t, run, sys.collect(), false)
}

// TestFastForwardActuallySkipsMultiChannel is the fabric's anti-vacuity
// guard: on an idle-heavy mix the multi-channel kernel must genuinely
// jump, in both routing modes, or the equivalence suite above proves
// nothing.
func TestFastForwardActuallySkipsMultiChannel(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range []addr.Routing{addr.RouteColored, addr.RouteInterleaved} {
		routing := routing
		t.Run(routing.String(), func(t *testing.T) {
			cfg := DefaultConfig(mix, FSRankPart)
			cfg.TargetReads = 1500
			cfg.Channels = 2
			cfg.Routing = routing
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			jumps, skipped := s.FastForward()
			if jumps == 0 || skipped == 0 {
				t.Errorf("multi-channel fast-forward never skipped (jumps=%d skipped=%d over %d bus cycles)",
					jumps, skipped, res.Run.BusCycles)
			}
		})
	}
}

// TestFastForwardEquivalenceFeatures covers the configuration corners with
// their own horizon sources: refresh deadlines, the prefetch buffer's
// immediate completions, FS energy optimizations (power-down, suppressed
// dummies), weighted SLAs, and fixed-duration runs whose idle tail is the
// kernel's best case.
func TestFastForwardEquivalenceFeatures(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline-refresh", func(c *Config) { c.Scheduler = Baseline; c.RefreshEnabled = true }},
		{"fs-refresh", func(c *Config) { c.Scheduler = FSRankPart; c.RefreshEnabled = true }},
		{"baseline-prefetch", func(c *Config) { c.Scheduler = Baseline; c.Prefetch = true }},
		{"fs-prefetch", func(c *Config) { c.Scheduler = FSRankPart; c.Prefetch = true }},
		{"fs-energy", func(c *Config) {
			c.Scheduler = FSRankPart
			c.Energy = core.EnergyOpts{SuppressDummies: true, RowBufferBoost: true, PowerDown: true}
		}},
		{"fs-weighted-sla", func(c *Config) { c.Scheduler = FSRankPart; c.SLAWeights = []int{2, 1, 1, 1} }},
		{"fixed-duration", func(c *Config) { c.TargetReads = 0; c.MaxBusCycles = 300_000 }},
		{"watchdog-truncated", func(c *Config) { c.TargetReads = 1 << 40; c.MaxBusCycles = 200_000 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(mix, FSRankPart)
			cfg.TargetReads = 1500
			cfg.Observe = &obs.Options{}
			tc.mutate(&cfg)
			diffLoops(t, cfg)
		})
	}
}

// TestFastForwardEquivalenceFaulted pins the fault layer: queue-pressure
// spikes (their own horizon), refresh storms (injector extras), command
// delays (injector replays), and timing derates must all land on identical
// cycles under both loops.
func TestFastForwardEquivalenceFaulted(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 4)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*fault.Plan{
		{Name: "spike", Seed: 7, Loads: []fault.LoadFault{
			{Kind: fault.LoadQueueSpike, Domain: 1, AtCycle: 60_000, Count: 24},
		}},
		{Name: "storm", Seed: 7, Loads: []fault.LoadFault{
			{Kind: fault.LoadRefreshStorm, Rank: 0, AtCycle: 50_000, Count: 4},
		}},
		{Name: "delay", Seed: 7, Commands: []fault.CommandFault{
			{AtCycle: 40_000, Action: fault.ActionDelay, Delay: 200},
		}},
		{Name: "derate", Seed: 7, Derates: []fault.RankDerate{
			{Rank: -1, Derate: fault.Derate{TRCD: 2}},
		}},
	}
	for _, k := range []SchedulerKind{Baseline, FSRankPart} {
		for _, plan := range plans {
			k, plan := k, plan
			t.Run(k.String()+"/"+plan.Name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(mix, k)
				cfg.TargetReads = 1500
				cfg.Fault = plan
				diffLoops(t, cfg)
			})
		}
	}
}

// TestFastForwardActuallySkips guards against the kernel silently
// degenerating to dense stepping (every horizon returning the current
// cycle): on an idle-heavy mix the jump counters must move, otherwise the
// equivalence suite passes vacuously and the ≥2× benchmark gate is the only
// thing left to notice. The loaded mix (milc×8 on one channel) keeps the
// Baseline and TP queues busy, so it fails if their horizon pins the clock
// whenever work is queued instead of reporting the scheduler's wake.
func TestFastForwardActuallySkips(t *testing.T) {
	skips := func(t *testing.T, mix workload.Mix, kinds []SchedulerKind) {
		for _, k := range kinds {
			k := k
			t.Run(k.String(), func(t *testing.T) {
				cfg := DefaultConfig(mix, k)
				cfg.TargetReads = 1500
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				jumps, skipped := s.FastForward()
				if jumps == 0 || skipped == 0 {
					t.Errorf("fast-forward kernel never skipped (jumps=%d skipped=%d over %d bus cycles)",
						jumps, skipped, res.Run.BusCycles)
				}
			})
		}
	}
	idle, err := workload.Rate("xalancbmk", 4)
	if err != nil {
		t.Fatal(err)
	}
	skips(t, idle, allKinds())
	loaded, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("loaded", func(t *testing.T) { skips(t, loaded, []SchedulerKind{Baseline, TPBank, TPNone}) })
}

// ctlFingerprint captures every controller-side observable: the shell and
// scheduler metric emissions (queue depths, retired counts, drain state,
// FS energy tallies), the channel's command counters, and the per-domain
// statistics updated by request completion. If a Tick changes any of this,
// the cycle it ran on was a state change the horizon had to predict.
type ctlFingerprint struct {
	metrics  map[string]float64
	counters dram.Counters
	dom      []stats.Domain
}

func fingerprint(c *mem.Controller) ctlFingerprint {
	fp := ctlFingerprint{metrics: make(map[string]float64)}
	emit := func(name string, v float64) { fp.metrics[name] = v }
	c.ObsMetrics(emit)
	if src, ok := c.Scheduler().(interface {
		ObsMetrics(func(string, float64))
	}); ok {
		src.ObsMetrics(emit)
	}
	fp.counters = c.Chan.Counters
	fp.dom = append([]stats.Domain(nil), c.Dom...)
	return fp
}

// TestNextEventNeverLate is the table-driven horizon-correctness check for
// the controller side: after warming the system up with real traffic, the
// controller is ticked alone (no core enqueues) and every observable state
// change must land on a cycle NextEvent predicted — i.e. the horizon may
// only ever be early. Tick-only draining walks the schedulers through
// drain-mode settling, completion delivery, refresh deadlines, and FS
// planning boundaries with idle slots.
func TestNextEventNeverLate(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline", func(c *Config) { c.Scheduler = Baseline }},
		{"baseline-refresh", func(c *Config) { c.Scheduler = Baseline; c.RefreshEnabled = true }},
		{"tp-bank", func(c *Config) { c.Scheduler = TPBank }},
		{"tp-bank-long-turn", func(c *Config) { c.Scheduler = TPBank; c.TPTurnLength = 39 }},
		{"tp-none", func(c *Config) { c.Scheduler = TPNone }},
		{"fs-rank", func(c *Config) { c.Scheduler = FSRankPart }},
		{"fs-rank-refresh", func(c *Config) { c.Scheduler = FSRankPart; c.RefreshEnabled = true }},
		{"fs-reordered", func(c *Config) { c.Scheduler = FSReorderedBank }},
		{"fs-energy", func(c *Config) {
			c.Scheduler = FSRankPart
			c.Energy = core.EnergyOpts{SuppressDummies: true, RowBufferBoost: true, PowerDown: true}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(mix, Baseline)
			tc.mutate(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up with cores attached so queues carry real traffic.
			for i := 0; i < 2000; i++ {
				s.Step()
			}
			ctl := s.Controller()
			// Tick-only phase: drain the queues and run well past the next
			// refresh deadline / planning boundary, checking the horizon
			// against every observable transition. Early horizons (h == now
			// with nothing happening) are allowed — they cost one dense step
			// — but a change on a cycle NextEvent placed in the future means
			// fast-forward would have jumped over real work.
			changes := 0
			for i := 0; i < 30_000; i++ {
				now := ctl.Cycle
				h := ctl.NextEvent()
				if h < now {
					t.Fatalf("cycle %d: NextEvent returned the past (%d)", now, h)
				}
				before := fingerprint(ctl)
				ctl.Tick()
				if !reflect.DeepEqual(before, fingerprint(ctl)) {
					changes++
					if h != now {
						t.Fatalf("state changed on cycle %d but NextEvent said the next event was at %d (horizon too late)", now, h)
					}
				}
				// Top the queues back up occasionally (outside the checked
				// window, so core enqueues never masquerade as Tick effects):
				// long eventless stretches are exactly where horizons matter,
				// but a fully drained TP system would make the test vacuous.
				if i%512 == 0 {
					for cc := 0; cc < 8*s.cfg.DRAM.CPUCyclesPerBusCycle; cc++ {
						for _, c := range s.lanes[0].cores {
							c.Cycle()
						}
					}
				}
			}
			if changes == 0 {
				t.Fatal("tick-only phase never changed controller state: the property was tested vacuously")
			}
		})
	}
}

// TestDenseEnvOverride pins the FSMEM_DENSE escape hatch's plumbing: the
// package-level flag forces the dense loop even when the config asks for
// fast-forward.
func TestDenseEnvOverride(t *testing.T) {
	mix, err := workload.Rate("xalancbmk", 2)
	if err != nil {
		t.Fatal(err)
	}
	old := envDense
	envDense = true
	defer func() { envDense = old }()
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if jumps, _ := s.FastForward(); jumps != 0 {
		t.Errorf("FSMEM_DENSE set but the kernel still jumped %d times", jumps)
	}
}

// tickCounter wraps the Baseline to count the ticks the controller runs;
// every other method is the Baseline's own.
type tickCounter struct {
	*sched.Baseline
	ticks int64
}

func (t *tickCounter) Tick(c *mem.Controller) {
	t.ticks++
	t.Baseline.Tick(c)
}

// TestBaselineTicksPerCommand bounds how often the event-driven Baseline
// ticks: on milc×8 on one channel a tick runs only when some candidate's
// bound has passed, so ticks stay within 1.25 per issued command. The run
// must still be the unwrapped run, byte for byte.
func TestBaselineTicksPerCommand(t *testing.T) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, Baseline)
	cfg.TargetReads = 20_000
	if testing.Short() {
		cfg.TargetReads = 5_000
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := s.Controller()
	counter := &tickCounter{Baseline: ctl.Scheduler().(*sched.Baseline)}
	ctl.SetScheduler(counter)
	res := s.Run()
	cmds := ctl.Chan.Counters.CmdBusBusy
	t.Logf("%d ticks for %d commands (%.3f per command)", counter.ticks, cmds, float64(counter.ticks)/float64(cmds))
	if float64(counter.ticks) > 1.25*float64(cmds) {
		t.Errorf("%d ticks for %d commands, want at most 1.25 per command", counter.ticks, cmds)
	}
	want, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("counting ticks changed the run")
	}
}
