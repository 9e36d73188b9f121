// Package sim assembles the full system: one core per security domain
// driving a synthetic workload through a ROB model, N memory channels —
// each a controller with a pluggable scheduling policy over the
// cycle-accurate DRAM channel — and one master clock. The clock loop ticks
// in DRAM bus cycles; cores run CPUCyclesPerBusCycle CPU cycles per tick
// (4 at 3.2 GHz / DDR3-1600). One channel is simply the N=1 case.
package sim

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/cpu"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/mem"
	"fsmem/internal/obs"
	"fsmem/internal/prefetch"
	"fsmem/internal/sched"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// SchedulerKind selects the memory scheduling policy under test.
type SchedulerKind int

const (
	// Baseline is the optimized non-secure FR-FCFS scheduler.
	Baseline SchedulerKind = iota
	// TPBank is temporal partitioning with bank partitioning.
	TPBank
	// TPNone is temporal partitioning with no spatial partitioning.
	TPNone
	// FSRankPart .. FSNoPartTriple are the Fixed Service design points.
	FSRankPart
	FSBankPart
	FSReorderedBank
	FSNoPart
	FSNoPartTriple
)

// String names the scheduler with the paper's abbreviations.
func (k SchedulerKind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case TPBank:
		return "TP_BP"
	case TPNone:
		return "TP_NP"
	case FSRankPart:
		return "FS_RP"
	case FSBankPart:
		return "FS_BP"
	case FSReorderedBank:
		return "FS_Reordered_BP"
	case FSNoPart:
		return "FS_NP"
	case FSNoPartTriple:
		return "FS_NP_Optimized"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// IsFS reports whether the kind is a Fixed Service variant.
func (k SchedulerKind) IsFS() bool { return k >= FSRankPart }

// FSVariant maps the kind to its core.Variant; only valid when IsFS.
func (k SchedulerKind) FSVariant() core.Variant {
	return core.Variant(k - FSRankPart)
}

// Partition returns the spatial partitioning the policy assumes for page
// coloring.
func (k SchedulerKind) Partition() addr.PartitionKind {
	switch k {
	case TPBank, FSBankPart, FSReorderedBank:
		return addr.PartitionBank
	case FSRankPart:
		return addr.PartitionRank
	default:
		return addr.PartitionNone
	}
}

// AllSecure lists the five secure design points of Figure 3/6.
func AllSecure() []SchedulerKind {
	return []SchedulerKind{FSRankPart, FSReorderedBank, TPBank, FSNoPartTriple, TPNone}
}

// Config describes one simulation.
type Config struct {
	DRAM      dram.Params
	Mix       workload.Mix
	Scheduler SchedulerKind

	// Channels selects the memory-fabric width: how many independent
	// channel controllers the system instantiates, each with its own
	// scheduler instance and clock. 0 defers to DRAM.Channels (1 in the
	// stock geometries); both >1 and disagreeing is a configuration
	// error. One channel is the 1-wide case of the same loop and is
	// byte-identical to the pre-fabric single-controller simulator.
	Channels int
	// Routing selects how requests map to channels when Channels > 1:
	// addr.RouteColored page-colors contiguous domain blocks onto
	// dedicated channels (no cross-domain sharing, Section 4.1);
	// addr.RouteInterleaved stripes every domain across all channels by
	// address bits (channels become shared, contended resources).
	Routing addr.Routing

	// TPTurnLength sets the TP turn in bus cycles (0 = the mode's minimum,
	// the best configuration per Figure 5).
	TPTurnLength int64

	// Prefetch enables the sandbox prefetcher (Figure 7).
	Prefetch bool

	// Energy enables the FS energy optimizations (Figure 9).
	Energy core.EnergyOpts

	// RefreshEnabled turns on refresh management (supported by the baseline
	// and by FS with rank partitioning, which folds deterministic refresh
	// windows into the slot grid; see DESIGN.md).
	RefreshEnabled bool

	// SLAWeights assigns each domain a number of FS issue slots per
	// interval (§5.1); nil means equal service.
	SLAWeights []int

	// FSSlotSpacing overrides the solver's slot spacing l (0 = solve).
	// Used by the ablation studies to quantify the cost of pessimistic
	// spacings.
	FSSlotSpacing int

	Seed uint64

	// Fault, when non-nil, runs the simulation under the given deterministic
	// fault plan (see internal/fault): timing derates on the monitor's
	// shadow checker, command-stream perturbations between scheduler and
	// device, and load faults. The always-on monitor reports what the
	// faults did in Result.Monitor.
	Fault *fault.Plan

	// WallClockBudget bounds the real time one run may take (0 = none).
	// When exceeded the run stops early with Result.Truncated set rather
	// than hanging the caller.
	WallClockBudget time.Duration

	// StreamFactory, when non-nil, overrides the synthetic workload
	// generator for each domain — e.g. to drive the system from a recorded
	// trace or a cache-filtered pre-LLC stream. The mix still provides the
	// domain count and labels.
	StreamFactory func(domain int, space addr.Space, seed uint64) trace.Stream

	// TargetReads stops the run once this many demand reads completed
	// (the paper uses 1M; tests and benches scale down).
	TargetReads int64
	// MaxBusCycles is a safety stop.
	MaxBusCycles int64

	// Observe, when non-nil, attaches the observability layer: a bounded
	// command/event tracer on the controller and a metrics snapshot built at
	// end of run. Nil keeps the hot path at a single nil-check per
	// instrumentation site (see internal/obs).
	Observe *obs.Options

	// DenseLoop disables the event-horizon fast-forward kernel and the
	// event-driven cores and runs the original dense per-cycle loop, every
	// core every CPU cycle (DESIGN.md §13). The two produce byte-identical
	// Results — enforced by TestFastForwardEquivalence — so this is purely
	// the reference for differential testing and debugging.
	// The FSMEM_DENSE environment variable (any non-empty value) forces the
	// dense loop process-wide.
	DenseLoop bool
}

// envDense pins the dense loop for the whole process, read once so the hot
// loop never consults the environment.
var envDense = os.Getenv("FSMEM_DENSE") != ""

// DefaultConfig returns an 8-core Table 1 configuration for the given mix
// and scheduler.
func DefaultConfig(mix workload.Mix, k SchedulerKind) Config {
	return Config{
		DRAM:         dram.DDR3_1600(),
		Mix:          mix,
		Scheduler:    k,
		Seed:         42,
		TargetReads:  20000,
		MaxBusCycles: 40_000_000,
	}
}

// Result bundles the run statistics with FS engine counters (nil for
// non-FS policies) and the runtime-verification report.
type Result struct {
	Run stats.Run
	FS  *core.FSStats

	// Monitor is the always-on runtime verification report: shadow-checker
	// timing violations, schedule divergences (FS only), and per-domain
	// command-trace hashes.
	Monitor *fault.Report

	// Truncated is set when the run stopped on the max-cycle watchdog or
	// the wall-clock budget instead of reaching TargetReads; the statistics
	// are partial but internally consistent.
	Truncated      bool
	TruncateReason string

	// Metrics is the end-of-run observability snapshot (nil unless
	// Config.Observe was set).
	Metrics obs.Snapshot
	// Trace is the bounded command/event trace (nil unless Config.Observe
	// was set). Export it with obs.WriteJSONL or obs.WriteChrome. In a
	// multi-channel run the per-channel traces are merged by cycle, with
	// each event's Chan field naming its channel.
	Trace *obs.Tracer

	// PerChannel holds each channel's own Result in a multi-channel run
	// (nil for single-channel runs). Under colored routing every entry is
	// byte-identical to the standalone single-channel simulation of that
	// channel's domain block.
	PerChannel []Result
}

// channelSeedStride separates per-channel seeds, so a colored channel is
// seeded exactly like the standalone single-channel run of its domain
// block.
const channelSeedStride = 0x9e3779b97f4a7c15

// spikeState tracks one pending queue-pressure spike: extra demand reads
// force-fed to a domain's read queue starting at a cycle.
type spikeState struct {
	mem    cpu.Memory // the owning channel's controller, or the fabric
	domain int
	at     int64
	addrs  []dram.Address
	next   int
}

// simChannel is one memory channel: a controller with its own scheduler
// instance, monitor and fault injector and — under blocked routing (one
// channel, or colored) — the cores and queue-pressure spikes of its own
// domain block, which issue straight to the controller with
// channel-local domain ids.
type simChannel struct {
	name string // Result workload label: the mix name, or "mix-ch2" in a fabric
	ctl  *mem.Controller
	fs   *core.FS
	mon  *fault.Monitor
	inj  *fault.Injector

	cores  []*simCore
	spikes []*spikeState

	// frozen is set once a blocked channel's own domains complete the
	// target demand reads: the channel stops ticking exactly where the
	// standalone run of the same block would stop.
	frozen bool
}

// reads sums the channel's completed demand reads.
func (ch *simChannel) reads() int64 {
	var n int64
	for d := range ch.ctl.Dom {
		n += ch.ctl.Dom[d].Reads
	}
	return n
}

// simCore is one core under event-driven stepping (DESIGN.md §13): Step
// runs Cycle only on the CPU cycles where the core may touch memory, and
// the core owes every other cycle until something needs its state.
type simCore struct {
	*cpu.Core
	at   int64 // CPU cycles run or skipped so far
	next int64 // CPU cycle of the next Cycle that may interact, or cpu.Forever
}

// advance applies the interaction-free cycles the core owes up to CPU
// cycle t.
func (c *simCore) advance(t int64) {
	c.Skip(t - c.at)
	c.at = t
}

// plan caches the CPU cycle of the core's next interaction.
func (c *simCore) plan() {
	c.next = cpu.Forever
	if k := c.NextInteraction(); k != cpu.Forever {
		c.next = c.at + k - 1
	}
}

// System is one assembled simulation: N channels stepped in lockstep by
// one master clock.
type System struct {
	cfg    Config
	chans  []*simChannel
	fabric *mem.Fabric // nil with one channel
	dense  bool        // the reference loop: Config.DenseLoop or FSMEM_DENSE
	cpb    int64       // CPU cycles per bus cycle

	// Interleaved routing only: global cores and spikes issue through the
	// fabric, and coreStats keeps the cores' CPU-side statistics (each
	// channel's controller keeps the memory-side fields of the traffic it
	// serviced).
	cores     []*simCore
	spikes    []*spikeState
	coreStats []stats.Domain

	// The channels still ticking, and the cores and spikes they drive
	// followed by the global ones. Rebuilt only when a channel freezes, so
	// the per-cycle loops never test a frozen flag.
	live       []*simChannel
	liveCores  []*simCore
	liveSpikes []*spikeState
	clock      int64 // master bus-cycle clock
	coreNext   int64 // earliest next interaction of a live core (CPU cycle)

	// Fast-forward kernel accounting (see FastForward). Deliberately kept
	// out of the obs snapshot: Results must stay byte-identical between
	// dense and fast-forward runs, and these counters differ by definition.
	ffJumps   int64
	ffSkipped int64
}

// New builds the system. It validates the configuration, builds every
// channel, derives each domain's partition space, and wires cores to
// their channel's controller (or, under interleaved routing, to the
// fabric's address router).
func New(cfg Config) (*System, error) {
	if err := cfg.DRAM.Validate(); err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "sim.New", err)
	}
	domains := len(cfg.Mix.Profiles)
	if domains == 0 {
		return nil, fsmerr.New(fsmerr.CodeWorkload, "sim.New", "mix %q has no profiles", cfg.Mix.Name)
	}
	for _, p := range cfg.Mix.Profiles {
		if err := p.Validate(); err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeWorkload, "sim.New", err)
		}
	}
	n, err := cfg.channels()
	if err != nil {
		return nil, err
	}
	interleaved := n > 1 && cfg.Routing != addr.RouteColored
	// Blocked channel c owns domains [c*per, (c+1)*per); an interleaved
	// channel's controller spans every domain.
	per := domains / n
	if interleaved {
		per = domains
	}

	s := &System{cfg: cfg, dense: cfg.DenseLoop || envDense, cpb: int64(cfg.DRAM.CPUCyclesPerBusCycle)}
	ctls := make([]*mem.Controller, n)
	for c := range ctls {
		seed := cfg.Seed + uint64(c)*channelSeedStride
		ch, err := newChannel(cfg, c, n, per, seed)
		if err != nil {
			return nil, err
		}
		if !interleaved {
			// Each blocked channel runs the full fault plan against its own
			// block and draws its stream seeds from its own RNG — exactly
			// the standalone run of that block.
			if ch.spikes, err = newSpikes(cfg, per, ch.ctl); err != nil {
				return nil, err
			}
			if ch.cores, err = s.newCores(c*per, per, seed, ch.ctl, ch.ctl.Dom); err != nil {
				return nil, err
			}
		}
		ctls[c] = ch.ctl
		s.chans = append(s.chans, ch)
	}
	if n > 1 {
		s.fabric = mem.NewFabric(ctls, cfg.Routing, domains)
	}
	if interleaved {
		s.coreStats = make([]stats.Domain, domains)
		if s.spikes, err = newSpikes(cfg, domains, s.fabric); err != nil {
			return nil, err
		}
		if s.cores, err = s.newCores(0, domains, cfg.Seed, s.fabric, s.coreStats); err != nil {
			return nil, err
		}
	}
	s.rebuildLive()
	return s, nil
}

// newChannel builds channel c of n: its scheduling policy (seeded per
// channel, so FS static schedules are independent), controller, tracer,
// prefetcher, always-on monitor and fault injector, sized for the given
// domain count.
func newChannel(cfg Config, c, n, domains int, seed uint64) (*simChannel, error) {
	var policy mem.Scheduler
	var fs *core.FS
	mcfg := mem.DefaultConfig(domains)
	switch cfg.Scheduler {
	case Baseline:
		b := sched.NewBaseline(cfg.DRAM, mcfg)
		b.RefreshEnabled = cfg.RefreshEnabled
		policy = b
	case TPBank, TPNone:
		mode := sched.TPBankPartitioned
		if cfg.Scheduler == TPNone {
			mode = sched.TPNoPartitioning
		}
		turn := cfg.TPTurnLength
		if turn == 0 {
			turn = mode.MinTurnLength(cfg.DRAM)
		}
		tp, err := sched.NewTP(cfg.DRAM, mode, domains, turn)
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeConfig, "sim.New", err)
		}
		policy = tp
	default:
		var err error
		fs, err = core.NewFS(cfg.DRAM, core.Config{
			Variant:        cfg.Scheduler.FSVariant(),
			Domains:        domains,
			Seed:           seed,
			Energy:         cfg.Energy,
			Weights:        cfg.SLAWeights,
			RefreshEnabled: cfg.RefreshEnabled,
			L:              cfg.FSSlotSpacing,
		})
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeConfig, "sim.New", err)
		}
		policy = fs
	}

	ctl := mem.NewController(cfg.DRAM, mcfg, policy)
	if cfg.Observe != nil {
		ctl.Obs = obs.NewTracer(cfg.Observe)
		ctl.Obs.SetChannel(c)
	}
	if cfg.Prefetch {
		ctl.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(cfg.DRAM) })
	}
	ch := &simChannel{name: cfg.Mix.Name, ctl: ctl, fs: fs}
	if n > 1 {
		ch.name = fmt.Sprintf("%s-ch%d", cfg.Mix.Name, c)
	}

	// Always-on runtime verification: every run is shadowed by an
	// independent timing checker; FS runs additionally assert that the bus
	// carries exactly the statically planned command stream.
	ch.mon = fault.NewMonitor(cfg.DRAM, domains)
	if cfg.Scheduler.IsFS() {
		ch.mon.EnableScheduleCheck()
	}
	if cfg.Fault != nil {
		ch.mon.ApplyDerates(cfg.Fault.Derates)
		if inj := fault.NewInjector(cfg.Fault, cfg.DRAM); inj.Active() {
			ch.inj = inj
			ctl.AttachInjector(inj)
		}
	}
	ctl.AttachMonitor(ch.mon)
	return ch, nil
}

// newSpikes builds the fault plan's queue-pressure spikes for one block of
// the given domain count (a blocked channel, or the whole system under
// interleaved routing), delivered through m.
func newSpikes(cfg Config, domains int, m cpu.Memory) ([]*spikeState, error) {
	var out []*spikeState
	for _, l := range cfg.Fault.Spikes() {
		if l.Domain < 0 || l.Domain >= domains || l.Count <= 0 {
			return nil, fsmerr.New(fsmerr.CodeFault, "sim.New",
				"queue spike targets domain %d (of %d) with count %d", l.Domain, domains, l.Count)
		}
		sp := &spikeState{mem: m, domain: l.Domain, at: l.AtCycle}
		srng := trace.NewRNG(cfg.Fault.Seed ^ 0x73706b65 ^ uint64(l.Domain))
		space, err := addr.SpaceFor(cfg.Scheduler.Partition(), l.Domain, domains, cfg.DRAM)
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeConfig, "sim.New", err)
		}
		for i := 0; i < l.Count; i++ {
			sp.addrs = append(sp.addrs, dram.Address{
				Rank: space.Ranks[srng.Intn(len(space.Ranks))],
				Bank: space.Banks[srng.Intn(len(space.Banks))],
				Row:  srng.Intn(cfg.DRAM.RowsPerBank),
				Col:  srng.Intn(cfg.DRAM.ColsPerRow),
			})
		}
		out = append(out, sp)
	}
	return out, nil
}

// newCores builds the cores of the n-domain block starting at global
// domain first. Stream seeds are drawn in local-domain order from an RNG
// seeded with seed; each core issues through m under its local domain id
// and counts into st. Outside the dense loop each core plans its first
// interaction and syncs on its read completions.
func (s *System) newCores(first, n int, seed uint64, m cpu.Memory, st []stats.Domain) ([]*simCore, error) {
	cfg := s.cfg
	rng := trace.NewRNG(seed)
	cores := make([]*simCore, n)
	for d := range cores {
		space, err := addr.SpaceFor(cfg.Scheduler.Partition(), d, n, cfg.DRAM)
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeConfig, "sim.New", err)
		}
		var stream trace.Stream
		seed := rng.Uint64()
		if cfg.StreamFactory != nil {
			stream = cfg.StreamFactory(d, space, seed)
		} else {
			stream = workload.NewGenerator(cfg.Mix.Profiles[first+d], space, cfg.DRAM, seed)
		}
		c := &simCore{Core: cpu.NewCore(d, cfg.Fault.StreamFor(d, stream), m, &st[d])}
		if !s.dense {
			c.Sync = func() { s.completed(c) }
			c.plan()
		}
		cores[d] = c
	}
	return cores, nil
}

// channels resolves the effective fabric width from Config.Channels and
// DRAM.Channels, rejecting a disagreement and (under colored routing) a
// domain count that does not split evenly over the channels.
func (cfg Config) channels() (int, error) {
	n := cfg.Channels
	if n < 0 {
		return 0, fsmerr.New(fsmerr.CodeConfig, "sim.New", "channels must be non-negative, got %d", n)
	}
	if n == 0 {
		n = cfg.DRAM.Channels
	} else if cfg.DRAM.Channels > 1 && cfg.DRAM.Channels != n {
		return 0, fsmerr.New(fsmerr.CodeConfig, "sim.New",
			"Config.Channels=%d disagrees with DRAM.Channels=%d", n, cfg.DRAM.Channels)
	}
	if n <= 1 {
		return 1, nil
	}
	if cfg.Routing == addr.RouteColored && len(cfg.Mix.Profiles)%n != 0 {
		return 0, fsmerr.New(fsmerr.CodeConfig, "sim.New",
			"%d domains do not split evenly over %d colored channels", len(cfg.Mix.Profiles), n)
	}
	return n, nil
}

// rebuildLive recomputes the live channel, core and spike lists from the
// channels' frozen flags.
func (s *System) rebuildLive() {
	s.live, s.liveCores, s.liveSpikes = s.live[:0], s.liveCores[:0], s.liveSpikes[:0]
	for _, ch := range s.chans {
		if !ch.frozen {
			s.live = append(s.live, ch)
			s.liveCores = append(s.liveCores, ch.cores...)
			s.liveSpikes = append(s.liveSpikes, ch.spikes...)
		}
	}
	s.liveCores = append(s.liveCores, s.cores...)
	s.liveSpikes = append(s.liveSpikes, s.spikes...)
	s.coreNext = s.earliestCore()
}

// earliestCore returns the earliest planned interaction of a live core.
func (s *System) earliestCore() int64 {
	next := cpu.Forever
	for _, c := range s.liveCores {
		next = min(next, c.next)
	}
	return next
}

// syncCores brings cores up to the master clock. Readers of core
// statistics call it first; under the dense loop cores are never behind.
func (s *System) syncCores(cores ...*simCore) {
	if s.dense {
		return
	}
	for _, c := range cores {
		c.advance(s.clock * s.cpb)
	}
}

// completed runs when one of c's reads completes, before the read is
// marked done: the cycles c owes ran while the read was outstanding, so
// they are applied first. The completion may let c retire and fetch, so
// it runs the current bus cycle's first CPU cycle and replans.
func (s *System) completed(c *simCore) {
	t := s.clock * s.cpb
	c.advance(t)
	c.next = t
	s.coreNext = min(s.coreNext, t)
}

// Controller exposes the memory controller of a single-channel system
// (for examples and tests). It is nil in multi-channel mode — use Fabric
// for the per-channel controllers there.
func (s *System) Controller() *mem.Controller {
	if len(s.chans) != 1 {
		return nil
	}
	return s.chans[0].ctl
}

// Fabric exposes the multi-channel fabric, or nil in single-channel mode.
func (s *System) Fabric() *mem.Fabric { return s.fabric }

// Channels returns the fabric width (1 for the classic single-channel
// system).
func (s *System) Channels() int { return len(s.chans) }

// DomainInstructions returns the retired-instruction count of one global
// security domain, independent of fabric mode: under blocked routing the
// count lives in its channel's stats block, under interleaved routing in
// the system-owned CPU-side accumulator. Probes (the leakage harness) use
// this instead of reaching into Controller().Dom.
func (s *System) DomainInstructions(domain int) int64 {
	if s.coreStats != nil {
		s.syncCores(s.cores[domain])
		return s.coreStats[domain].Instructions
	}
	per := len(s.cfg.Mix.Profiles) / len(s.chans)
	ch, d := s.chans[domain/per], domain%per
	if !ch.frozen {
		s.syncCores(ch.cores[d]) // a frozen channel synced its cores as it froze
	}
	return ch.ctl.Dom[d].Instructions
}

// Reconfigure performs the §5.1 SLA change: it drains the memory
// controller "similar to a CPU pipeline drain on a context-switch" (cores
// are stalled, queued transactions finish under the old schedule), then
// swaps in a fresh Fixed Service engine with the new slot weights. Only
// FS policies on a single channel can be reconfigured, and the spatial
// partitioning (page coloring) is unchanged.
func (s *System) Reconfigure(weights []int) error {
	if len(s.chans) > 1 {
		return fsmerr.New(fsmerr.CodeConfig, "sim.Reconfigure",
			"SLA reconfiguration is not supported on a multi-channel fabric")
	}
	ch := s.chans[0]
	ctl := ch.ctl
	if ch.fs == nil {
		return fsmerr.New(fsmerr.CodeConfig, "sim.Reconfigure",
			"only Fixed Service schedulers support SLA reconfiguration (running %s)", ctl.Scheduler().Name())
	}
	newCfg := core.Config{
		Variant:        s.cfg.Scheduler.FSVariant(),
		Domains:        len(s.cfg.Mix.Profiles),
		Seed:           s.cfg.Seed + 1,
		Energy:         s.cfg.Energy,
		Weights:        weights,
		RefreshEnabled: s.cfg.RefreshEnabled,
	}
	// Validate the new schedule BEFORE draining: a rejected reconfiguration
	// must leave the running schedule untouched, and the drain quiesces the
	// old engine. (A dry construction is cheap — the solver is closed-form.)
	if _, err := core.NewFS(s.cfg.DRAM, newCfg); err != nil {
		return fsmerr.Wrap(fsmerr.CodeConfig, "sim.Reconfigure", err)
	}
	// The drain ticks the controller alone; the master clock follows it.
	defer func() { s.rebase(ctl.Cycle) }()
	// Drain in two phases: first let queued demand transactions finish
	// under the old schedule (cores stalled), then quiesce slot planning so
	// the pipeline itself empties.
	ctl.Obs.Reconfigure(ctl.Cycle, obs.ReconfigBegin)
	deadline := ctl.Cycle + 4_000_000
	for ctl.PendingReads() > 0 || ctl.PendingWrites() > 0 {
		ctl.Tick()
		if ctl.Cycle > deadline {
			e := fsmerr.New(fsmerr.CodeDrain, "sim.Reconfigure",
				"drain phase 1 did not complete by cycle %d (%d reads, %d writes pending)",
				deadline, ctl.PendingReads(), ctl.PendingWrites())
			e.Cycle = ctl.Cycle
			return e
		}
	}
	ch.fs.BeginDrain()
	for !(ctl.Drained() && ch.fs.Idle()) {
		ctl.Tick()
		if ctl.Cycle > deadline {
			ch.fs.CancelDrain()
			e := fsmerr.New(fsmerr.CodeDrain, "sim.Reconfigure",
				"drain phase 2 did not complete by cycle %d", deadline)
			e.Cycle = ctl.Cycle
			return e
		}
	}
	ctl.Obs.Reconfigure(ctl.Cycle, obs.ReconfigDrained)
	newCfg.StartCycle = ctl.Cycle + 1
	fs, err := core.NewFS(s.cfg.DRAM, newCfg)
	if err != nil {
		// Pre-validation makes this unreachable, but if it ever fires the
		// old schedule must resume rather than stay quiesced forever.
		ch.fs.CancelDrain()
		return fsmerr.Wrap(fsmerr.CodeConfig, "sim.Reconfigure", err)
	}
	ch.fs = fs
	ctl.SetScheduler(fs)
	s.cfg.SLAWeights = weights
	ctl.Obs.Reconfigure(ctl.Cycle, obs.ReconfigDone)
	return nil
}

// rebase moves the master clock to cycle after the controller ran alone
// (the Reconfigure drain) with the cores stalled: each core is brought up
// to the old clock, shifted to the new one without running the cycles in
// between, and replanned, since completions during the drain may have
// unblocked it.
func (s *System) rebase(cycle int64) {
	s.syncCores(s.liveCores...)
	s.clock = cycle
	if s.dense {
		return
	}
	for _, c := range s.liveCores {
		c.at = cycle * s.cpb
		c.plan()
	}
	s.coreNext = s.earliestCore()
}

// Step advances the system by one DRAM bus cycle: every live channel
// ticks, then the live cores run the bus cycle's CPU cycles — under the
// dense loop every core every cycle, otherwise only the cycles on which a
// core may interact (stepCores).
func (s *System) Step() {
	for _, ch := range s.live {
		ch.ctl.Tick()
	}
	if s.dense {
		for cc := int64(0); cc < s.cpb; cc++ {
			for _, c := range s.liveCores {
				c.Cycle()
			}
		}
	} else {
		s.stepCores()
	}
	s.clock++
}

// stepCores runs the interacting CPU cycles of the current bus cycle in
// the dense loop's order, CPU cycle first and then core index: each core
// whose next interaction falls on the cycle applies what it owes, runs
// the cycle and replans. Every other cycle is interaction-free and stays
// owed, so cores never observe one another out of order.
func (s *System) stepCores() {
	end := (s.clock + 1) * s.cpb
	for s.coreNext < end {
		t, next := s.coreNext, cpu.Forever
		for _, c := range s.liveCores {
			if c.next == t {
				c.advance(t)
				c.Cycle()
				c.at++
				c.plan()
			}
			next = min(next, c.next)
		}
		s.coreNext = next
	}
}

// FastForward reports what the event-horizon kernel did during Run: the
// number of clock jumps taken and the total bus cycles those jumps skipped
// (zero under the dense loop).
func (s *System) FastForward() (jumps, skipped int64) { return s.ffJumps, s.ffSkipped }

// horizon returns the highest bus cycle h ≤ max such that every cycle in
// [now, h) is provably a no-op for every component: each live channel's
// controller (its scheduler's own horizon, pending completions, injector
// replays), pending queue-pressure spikes, and the live cores' earliest
// planned memory enqueue attempt. Returns the current cycle when
// nothing can be skipped. Horizons err early, never late: a component may
// report an event cycle at which nothing happens (costing one dense step),
// but must never place one after a real state change — that is the
// byte-identity proof obligation (DESIGN.md §13).
func (s *System) horizon(max int64) int64 {
	now := s.clock
	h := max
	for _, ch := range s.live {
		e := ch.ctl.NextEvent()
		if e <= now {
			return now
		}
		h = min(h, e)
	}
	for _, sp := range s.liveSpikes {
		if sp.next >= len(sp.addrs) {
			continue // fully delivered
		}
		if sp.at <= now {
			return now // pumping (possibly retrying against a full queue)
		}
		h = min(h, sp.at)
	}
	// The earliest core interaction caps the jump at the bus cycle that
	// holds it; a core stalled until a completion (cpu.Forever) is bounded
	// by the controller that owes the completion.
	hc := s.coreNext / s.cpb
	if hc <= now {
		return now
	}
	return min(h, hc)
}

// skipTo jumps the clock from the current cycle to h: every live
// controller's clock advances, and the cores, whose cycles up to h are
// interaction-free, keep owing them.
func (s *System) skipTo(h int64) {
	n := h - s.clock
	for _, ch := range s.live {
		ch.ctl.AdvanceIdle(n)
	}
	s.clock = h
	s.ffJumps++
	s.ffSkipped += n
}

// pumpSpikes force-feeds due queue-pressure spikes into their domain's
// read queue, retrying each cycle while the queue is full.
func (s *System) pumpSpikes() {
	for _, sp := range s.liveSpikes {
		if s.clock < sp.at {
			continue
		}
		for sp.next < len(sp.addrs) && sp.mem.EnqueueRead(sp.domain, sp.addrs[sp.next], nil) {
			sp.next++
		}
	}
}

// targetMet reports whether the run reached TargetReads. Under blocked
// routing each channel freezes as soon as its own domains reach the
// target, and the run ends when every channel has; under interleaved
// routing the target is global.
func (s *System) targetMet() bool {
	if s.coreStats != nil {
		return s.totalReads() >= s.cfg.TargetReads
	}
	froze := false
	for _, ch := range s.live {
		if ch.reads() >= s.cfg.TargetReads {
			s.syncCores(ch.cores...)
			ch.frozen = true
			froze = true
		}
	}
	if froze {
		s.rebuildLive()
	}
	return len(s.live) == 0
}

// totalReads sums completed demand reads across all channels.
func (s *System) totalReads() int64 {
	var n int64
	for _, ch := range s.chans {
		n += ch.reads()
	}
	return n
}

// Run executes until TargetReads demand reads completed, the max-cycle
// watchdog, or the wall-clock budget, and returns the collected
// statistics. A watchdog stop yields a partial Result with Truncated set
// instead of an error: the statistics up to the stop are still valid.
func (s *System) Run() Result { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is polled on
// the same cadence as the wall-clock watchdog, so a canceled sweep cell
// stops within a few thousand bus cycles instead of stalling its worker
// pool. Cancellation truncates the run exactly like a watchdog stop.
func (s *System) RunContext(ctx context.Context) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	max := s.cfg.MaxBusCycles
	if max == 0 {
		max = 40_000_000
	}
	ff := !s.dense
	var reason string
	start := time.Now()
	// The watchdog/cancellation poll fires once per 8192-cycle window. The
	// dense loop lands exactly on each multiple of 8192; a fast-forward jump
	// may overshoot one, in which case the poll runs at the first cycle past
	// it — same cadence, and only truncation timing (inherently wall-clock-
	// dependent) can observe the difference.
	var nextPoll int64
loop:
	for {
		if s.clock >= max {
			// With TargetReads == 0 a fixed-duration run is intentional (the
			// fault campaign needs cycle-aligned runs); only flag truncation
			// when a read target went unmet.
			if s.cfg.TargetReads > 0 {
				reason = fmt.Sprintf("max-cycle watchdog: %d bus cycles without reaching %d reads",
					max, s.cfg.TargetReads)
			}
			break
		}
		if s.clock >= nextPoll {
			nextPoll = s.clock - s.clock%8192 + 8192
			if s.cfg.WallClockBudget > 0 && time.Since(start) > s.cfg.WallClockBudget {
				reason = fmt.Sprintf("wall-clock budget %v exhausted at bus cycle %d",
					s.cfg.WallClockBudget, s.clock)
				break
			}
			select {
			case <-ctx.Done():
				reason = fmt.Sprintf("context canceled at bus cycle %d: %v", s.clock, ctx.Err())
				break loop
			default:
			}
		}
		if ff {
			if h := s.horizon(max); h > s.clock {
				s.skipTo(h)
				if s.clock >= max {
					continue // let the watchdog classify the stop
				}
				// Fall through: the cycle we landed on hosts the next event,
				// so the dense step runs now rather than paying a second
				// horizon computation that would just return "no skip".
			}
		}
		s.pumpSpikes()
		s.Step()
		if s.cfg.TargetReads > 0 && s.targetMet() {
			break
		}
	}
	return s.collect(reason)
}

// collect assembles the run's Result: a single channel's own Result, or
// the merge of N channels' Results.
func (s *System) collect(reason string) Result {
	s.syncCores(s.liveCores...)
	var res Result
	if len(s.chans) == 1 {
		res = s.chans[0].result(reason)
		res.Trace = s.chans[0].ctl.Obs
	} else {
		res = s.merge(reason)
	}
	if s.cfg.Observe != nil {
		res.Metrics = s.buildMetrics(&res)
	}
	return res
}

// result is the channel's own Result. A channel still short of its read
// target when the run stopped early is truncated with the run.
func (ch *simChannel) result(reason string) Result {
	r := Result{
		Run: stats.Run{
			Scheduler: ch.ctl.Scheduler().Name(),
			Workload:  ch.name,
			BusCycles: ch.ctl.Cycle,
			Domains:   append([]stats.Domain(nil), ch.ctl.Dom...),
			Channel:   ch.ctl.Chan.Counters,
			Latency:   ch.ctl.LatHist,
		},
		Monitor: ch.mon.Finalize(ch.inj),
	}
	if ch.fs != nil {
		st := ch.fs.Stats
		r.FS = &st
	}
	if !ch.frozen && reason != "" {
		r.Truncated = true
		r.TruncateReason = reason
	}
	return r
}

// merge assembles a multi-channel run's Result. Every channel's own
// Result goes into PerChannel, and the merged Run reports BusCycles as the
// wall-clock span (the max across channels), the per-channel cycle counts
// in ChannelCycles, and every hardware counter summed — see stats.Run.
// Blocked channels' domain blocks concatenate in channel order;
// interleaved domains sum every channel's memory-side fields into the
// cores' CPU-side statistics.
func (s *System) merge(reason string) Result {
	domains := len(s.cfg.Mix.Profiles)
	blocked := s.coreStats == nil
	merged := stats.Run{Workload: s.cfg.Mix.Name}
	chReason := reason
	if blocked {
		merged.Scheduler = fmt.Sprintf("%dch/%s", len(s.chans), s.cfg.Scheduler)
	} else {
		merged.Scheduler = fmt.Sprintf("%dch-interleaved/%s", len(s.chans), s.cfg.Scheduler)
		chReason = "" // interleaved channels share the run's one read target
	}

	per := make([]Result, len(s.chans))
	reports := make([]*fault.Report, len(per))
	var fsTotal *core.FSStats
	for c, ch := range s.chans {
		r := ch.result(chReason)
		per[c] = r
		if st := r.FS; st != nil {
			if fsTotal == nil {
				fsTotal = &core.FSStats{PowerDownCycles: make([]int64, len(st.PowerDownCycles))}
			}
			fsTotal.RowHitBoosts += st.RowHitBoosts
			fsTotal.PowerDownSlots += st.PowerDownSlots
			for rank := range st.PowerDownCycles {
				fsTotal.PowerDownCycles[rank] += st.PowerDownCycles[rank]
			}
		}
		reports[c] = r.Monitor
		merged.ChannelCycles = append(merged.ChannelCycles, r.Run.BusCycles)
		merged.BusCycles = max(merged.BusCycles, r.Run.BusCycles)
		merged.Channel.Add(r.Run.Channel)
	}

	if blocked {
		for _, r := range per {
			merged.Domains = append(merged.Domains, r.Run.Domains...)
			merged.Latency = append(merged.Latency, r.Run.Latency...)
		}
	} else {
		merged.Domains = make([]stats.Domain, domains)
		merged.Latency = make([]*stats.Histogram, domains)
		for d := 0; d < domains; d++ {
			dom := s.coreStats[d]
			h := stats.NewLatencyHistogram()
			for _, r := range per {
				dom.Add(r.Run.Domains[d])
				// Same fixed bucketing everywhere; Merge cannot fail.
				_ = h.Merge(r.Run.Latency[d])
			}
			merged.Domains[d] = dom
			merged.Latency[d] = h
		}
	}

	res := Result{
		Run:        merged,
		FS:         fsTotal,
		Monitor:    mergeReports(reports, blocked, domains/len(per)),
		PerChannel: per,
	}
	if reason != "" {
		res.Truncated = true
		res.TruncateReason = reason
	}
	if s.cfg.Observe != nil {
		tracers := make([]*obs.Tracer, len(s.chans))
		for c, ch := range s.chans {
			tracers[c] = ch.ctl.Obs
		}
		res.Trace = obs.Merge(tracers...)
	}
	return res
}

// mergeReports folds per-channel monitor reports into one system report:
// counters sum, structured violations and per-domain trace hashes
// concatenate (blocked channel order is global domain order), the
// unattributed-command hash is FNV-folded across channels, and faulted
// domains are remapped to global ids and deduplicated.
func mergeReports(rs []*fault.Report, blocked bool, perChannel int) *fault.Report {
	m := &fault.Report{}
	faulted := map[int]bool{}
	for c, r := range rs {
		m.Commands += r.Commands
		m.TimingViolations += r.TimingViolations
		m.ScheduleViolations += r.ScheduleViolations
		m.SchedulerViolations += r.SchedulerViolations
		m.Violations = append(m.Violations, r.Violations...)
		m.DomainTraces = append(m.DomainTraces, r.DomainTraces...)
		m.DomainBusTraces = append(m.DomainBusTraces, r.DomainBusTraces...)
		m.OtherTrace = m.OtherTrace*1099511628211 ^ r.OtherTrace
		m.Injected.Drops += r.Injected.Drops
		m.Injected.Delays += r.Injected.Delays
		m.Injected.Duplicates += r.Injected.Duplicates
		m.Injected.Extras += r.Injected.Extras
		m.Injected.ReplayRejects += r.Injected.ReplayRejects
		for _, d := range r.FaultedDomains {
			if blocked {
				d += c * perChannel
			}
			faulted[d] = true
		}
	}
	for d := range faulted {
		m.FaultedDomains = append(m.FaultedDomains, d)
	}
	sort.Ints(m.FaultedDomains)
	return m
}

// buildMetrics assembles the end-of-run observability snapshot. The
// registry is built here, outside the cycle loop, so observation costs
// nothing per cycle: every subsystem contributes its plain counters once.
// A single channel's sources are unprefixed; in a fabric each channel's
// hardware and controller sources carry a "chN." prefix, "sim" adds the
// channel count, and "domN" are the merged per-domain statistics.
func (s *System) buildMetrics(res *Result) obs.Snapshot {
	multi := len(s.chans) > 1
	reg := obs.NewRegistry()
	reg.Source("sim", obs.SourceFunc(func(emit func(string, float64)) {
		emit("bus_cycles", float64(s.clock))
		truncated := 0.0
		if res.Truncated {
			truncated = 1
		}
		emit("truncated", truncated)
		if multi {
			emit("channels", float64(len(s.chans)))
		}
		emit("trace_events", float64(len(res.Trace.Events())))
		emit("trace_dropped", float64(res.Trace.Dropped()))
	}))
	for c, ch := range s.chans {
		prefix := ""
		if multi {
			prefix = fmt.Sprintf("ch%d.", c)
		}
		reg.Source(prefix+"dram", ch.ctl.Chan.Counters)
		reg.Source(prefix+"mem", ch.ctl)
		if ch.fs != nil {
			// The FS engine IS the scheduler; one registration under "fs".
			reg.Source(prefix+"fs", ch.fs)
		} else if src, ok := ch.ctl.Scheduler().(obs.MetricSource); ok {
			reg.Source(prefix+"sched", src)
		}
	}
	for d := range res.Run.Domains {
		reg.Source(fmt.Sprintf("dom%d", d), res.Run.Domains[d])
	}
	reg.Source("monitor", res.Monitor)
	return reg.Snapshot()
}

// Simulate is the one-call convenience: build and run.
func Simulate(cfg Config) (Result, error) {
	return SimulateContext(context.Background(), cfg)
}

// SimulateContext is Simulate with cooperative cancellation. A run cut
// short by the context returns a CodeCanceled error rather than a
// truncated Result: partial statistics from a canceled sweep cell must
// never be mistaken for (or cached as) a completed experiment.
func SimulateContext(ctx context.Context, cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	res := s.RunContext(ctx)
	if ctx != nil && ctx.Err() != nil && res.Truncated {
		return Result{}, fsmerr.Wrap(fsmerr.CodeCanceled, "sim.SimulateContext", ctx.Err())
	}
	return res, nil
}
