// Package sim assembles the full system: one core per security domain
// driving a synthetic workload through a ROB model, and N memory channels —
// each a controller with a pluggable scheduling policy over the
// cycle-accurate DRAM channel — grouped into lanes, each stepped by its own
// clock. The clock loop ticks in DRAM bus cycles; cores run
// CPUCyclesPerBusCycle CPU cycles per tick (4 at 3.2 GHz / DDR3-1600). One
// channel is simply the N=1 case.
package sim

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

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

// AllSecure lists the five secure design points Figures 3, 6 and 8 and
// ablation A5 compare, in column order.
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
	// scheduler instance and DRAM channel. 0 and 1 both mean one channel,
	// the 1-wide case of the same loop, byte-identical to the pre-fabric
	// single-controller simulator. Interleaved channels share one clock;
	// colored channels are independent lanes, each with its own clock,
	// which Run steps concurrently. CheckFabric states which widths are
	// accepted.
	Channels int
	// Routing selects how requests map to channels when Channels > 1:
	// addr.RouteColored page-colors contiguous domain blocks onto
	// dedicated channels (no cross-domain sharing, Section 4.1);
	// addr.RouteInterleaved stripes every domain across all channels by
	// address bits (channels become shared, contended resources).
	Routing addr.Routing

	// TPTurnLength sets the TP turn in bus cycles (0 = the mode's minimum,
	// the best configuration per Figure 5; TPTurn resolves it).
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

	// StreamFactory, when non-nil, overrides the synthetic workload
	// generator for each domain — e.g. to drive the system from a recorded
	// trace. The mix still provides the domain count and labels. Streams
	// of different colored channels are read concurrently, so the streams
	// a factory returns must not share mutable state across domains
	// (memsim's trace replay gives each domain its own SliceStream over
	// its own copy of the trace).
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
	// a canceled context instead of reaching TargetReads; the statistics
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
// instance, monitor and fault injector.
type simChannel struct {
	name string // Result workload label: the mix name, or "mix-ch2" in a fabric
	ctl  *mem.Controller
	fs   *core.FS
	mon  *fault.Monitor
	inj  *fault.Injector
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

// lane is the unit the kernel loop runs: the channels one clock steps in
// lockstep, plus the cores and queue-pressure spikes that issue to them.
// A single channel is one lane, an interleaved fabric is one lane holding
// every channel (its cores issue through mem.Fabric), and a colored
// N-channel fabric is N lanes, one per channel, whose cores issue straight
// to their controller with channel-local domain ids. Lanes share no
// mutable state, so RunContext runs a multi-lane system's lanes
// concurrently. Each lane is allocated on its own.
type lane struct {
	// Written on every cycle the lane runs.
	clock    int64 // bus-cycle clock
	coreNext int64 // earliest next interaction of a core (CPU cycle)
	// Fast-forward kernel accounting (see FastForward). Deliberately kept
	// out of the obs snapshot: Results must stay byte-identical between
	// dense and fast-forward runs, and these counters differ by definition.
	ffJumps   int64
	ffSkipped int64

	chans  []*simChannel
	cores  []*simCore
	spikes []*spikeState
	dense  bool  // the reference loop: Config.DenseLoop or FSMEM_DENSE
	cpb    int64 // CPU cycles per bus cycle

	// reason says why the last run stopped short of its read target (the
	// watchdog or cancellation); empty when it did not.
	reason string

	// Keeps the per-cycle fields of two lanes allocated back to back off
	// a shared cache line.
	_ [64]byte
}

// System is one assembled simulation: N channels in one or more lanes.
type System struct {
	cfg    Config
	chans  []*simChannel // every channel, in channel order
	lanes  []*lane       // one per channel, or one for an interleaved fabric
	fabric *mem.Fabric   // nil with one channel

	// Interleaved routing only: coreStats keeps the cores' CPU-side
	// statistics (each channel's controller keeps the memory-side fields of
	// the traffic it serviced).
	coreStats []stats.Domain
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
	if err := CheckFabric(cfg.Channels, cfg.Routing, domains); err != nil {
		return nil, err
	}
	if err := CheckScheduler(cfg, domains); err != nil {
		return nil, err
	}
	n := max(cfg.Channels, 1)
	interleaved := n > 1 && cfg.Routing != addr.RouteColored
	// Blocked channel c owns domains [c*per, (c+1)*per); an interleaved
	// channel's controller spans every domain.
	per := domains / n
	if interleaved {
		per = domains
	}

	s := &System{cfg: cfg, chans: make([]*simChannel, n), lanes: make([]*lane, 0, n)}
	ctls := make([]*mem.Controller, n)
	for c := range s.chans {
		seed := cfg.Seed + uint64(c)*channelSeedStride
		ch, err := newChannel(cfg, c, n, per, seed)
		if err != nil {
			return nil, err
		}
		s.chans[c], ctls[c] = ch, ch.ctl
		if !interleaved {
			// One lane per blocked channel. It runs the full fault plan
			// against its own block and draws its stream seeds from its own
			// RNG — exactly the standalone run of that block.
			if err := s.addLane(s.chans[c:c+1], c*per, per, seed, ch.ctl, ch.ctl.Dom); err != nil {
				return nil, err
			}
		}
	}
	if n > 1 {
		s.fabric = mem.NewFabric(ctls)
	}
	if interleaved {
		// One lane: every core issues through the fabric.
		s.coreStats = make([]stats.Domain, domains)
		if err := s.addLane(s.chans, 0, domains, cfg.Seed, s.fabric, s.coreStats); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// addLane appends a lane stepping chans, with the queue-pressure spikes
// and the cores of the n-domain block starting at global domain first,
// all issuing through m (newCores says how seed and st are used).
func (s *System) addLane(chans []*simChannel, first, n int, seed uint64, m cpu.Memory, st []stats.Domain) error {
	l := &lane{chans: chans, dense: s.cfg.DenseLoop || envDense, cpb: int64(s.cfg.DRAM.CPUCyclesPerBusCycle)}
	var err error
	if l.spikes, err = newSpikes(s.cfg, n, m); err != nil {
		return err
	}
	if l.cores, err = l.newCores(s.cfg, first, n, seed, m, st); err != nil {
		return err
	}
	l.coreNext = l.earliestCore()
	s.lanes = append(s.lanes, l)
	return nil
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
		mode, turn, _ := TPTurn(cfg)
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

// newCores builds the lane's cores for the n-domain block starting at
// global domain first. Stream seeds are drawn in local-domain order from
// an RNG seeded with seed; each core issues through m under its local
// domain id and counts into st. Outside the dense loop each core plans its
// first interaction and syncs on its read completions.
func (l *lane) newCores(cfg Config, first, n int, seed uint64, m cpu.Memory, st []stats.Domain) ([]*simCore, error) {
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
		if !l.dense {
			c.Sync = func() { l.completed(c) }
			c.plan()
		}
		cores[d] = c
	}
	return cores, nil
}

// CheckFabric is the one acceptance rule for a fabric shape: the width
// must not be negative (0 and 1 both mean one channel), and colored
// routing must split the domains evenly over the channels. New applies
// it, and so does every layer that accepts a fabric shape before it
// builds a system (config files, audit options, daemon jobs).
func CheckFabric(channels int, routing addr.Routing, domains int) error {
	switch {
	case channels < 0:
		return fsmerr.New(fsmerr.CodeConfig, "sim.CheckFabric", "channels must be non-negative, got %d", channels)
	case channels > 1 && routing == addr.RouteColored && domains%channels != 0:
		return fsmerr.New(fsmerr.CodeConfig, "sim.CheckFabric",
			"%d domains do not split evenly over %d colored channels", domains, channels)
	}
	return nil
}

// TPTurn returns the TP mode cfg's scheduler runs and the turn length, in
// bus cycles, it runs at: cfg.TPTurnLength, or the mode's minimum when that
// is 0. ok is false when the scheduler is not TP.
func TPTurn(cfg Config) (mode sched.TPMode, turn int64, ok bool) {
	switch cfg.Scheduler {
	case TPBank:
		mode = sched.TPBankPartitioned
	case TPNone:
		mode = sched.TPNoPartitioning
	default:
		return 0, 0, false
	}
	turn = cfg.TPTurnLength
	if turn == 0 {
		turn = mode.MinTurnLength(cfg.DRAM)
	}
	return mode, turn, true
}

// CheckScheduler is the one acceptance rule for what a scheduler serves:
// the rules its constructor and the partition spaces apply
// (sched.CheckTP, core.Config.Check, addr.CheckPartition), stated without
// building anything, for the domains each channel's scheduler serves:
// domains/Channels under colored routing, every domain otherwise. It reads
// cfg's scheduler, DRAM parameters, fabric, SLA weights, refresh and TP
// turn length, and takes the domain count apart, so a layer that has no
// workload mix yet can apply it. The fabric must have passed CheckFabric.
// New applies it, and so does every layer that accepts a simulation
// before it builds one (config files, audit and leakage options, daemon
// jobs).
func CheckScheduler(cfg Config, domains int) error {
	if cfg.Channels > 1 && cfg.Routing == addr.RouteColored {
		domains /= cfg.Channels
	}
	var err error
	switch k := cfg.Scheduler; {
	case k == TPBank || k == TPNone:
		mode, turn, _ := TPTurn(cfg)
		err = sched.CheckTP(cfg.DRAM, mode, domains, turn)
	case k.IsFS():
		err = core.Config{Variant: k.FSVariant(), Domains: domains, Weights: cfg.SLAWeights, RefreshEnabled: cfg.RefreshEnabled}.Check()
	}
	if err == nil {
		err = addr.CheckPartition(cfg.Scheduler.Partition(), domains, cfg.DRAM)
	}
	if err != nil {
		return fsmerr.Wrap(fsmerr.CodeConfig, "sim.CheckScheduler", err)
	}
	return nil
}

// earliestCore returns the earliest planned interaction of the lane's
// cores.
func (l *lane) earliestCore() int64 {
	next := cpu.Forever
	for _, c := range l.cores {
		next = min(next, c.next)
	}
	return next
}

// sync brings cores up to the lane's clock. Readers of core statistics
// call it first; under the dense loop cores are never behind.
func (l *lane) sync(cores ...*simCore) {
	if l.dense {
		return
	}
	for _, c := range cores {
		c.advance(l.clock * l.cpb)
	}
}

// completed runs when one of c's reads completes, before the read is
// marked done: the cycles c owes ran while the read was outstanding, so
// they are applied first. The completion may let c retire and fetch, so
// it runs the current bus cycle's first CPU cycle and replans.
func (l *lane) completed(c *simCore) {
	t := l.clock * l.cpb
	c.advance(t)
	c.next = t
	l.coreNext = min(l.coreNext, t)
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

// Fabric exposes the per-channel controllers of a multi-channel system,
// or nil with one channel. Under interleaved routing it is also the
// router the cores issue through.
func (s *System) Fabric() *mem.Fabric { return s.fabric }

// Channels returns the fabric width (1 for the classic single-channel
// system).
func (s *System) Channels() int { return len(s.chans) }

// DomainInstructions returns the retired-instruction count of one global
// security domain, independent of fabric mode: under blocked routing the
// count lives in its channel's stats block, under interleaved routing in
// the system-owned CPU-side accumulator. The domain's core is first
// brought up to its lane's clock. Probes (the leakage harness) use this
// instead of reaching into Controller().Dom.
func (s *System) DomainInstructions(domain int) int64 {
	l, c, st := s.domainCore(domain)
	l.sync(c)
	return st.Instructions
}

// domainCore returns the lane that holds one global security domain, the
// domain's core and the statistics its retired instructions count into.
func (s *System) domainCore(domain int) (*lane, *simCore, *stats.Domain) {
	if s.coreStats != nil {
		return s.lanes[0], s.lanes[0].cores[domain], &s.coreStats[domain]
	}
	per := len(s.cfg.Mix.Profiles) / len(s.lanes)
	l, d := s.lanes[domain/per], domain%per
	return l, l.cores[d], &l.chans[0].ctl.Dom[d]
}

// RetireTo runs the lane that holds domain through the kernel loop, for
// at least one bus cycle and until the domain has retired at least n
// instructions, and returns the lane's clock then. ok is false when the
// clock reaches limit first or ctx is canceled (polled like RunContext).
// The other lanes do not advance: they share no state with this one.
//
// A core retires at most Width instructions per CPU cycle, so from clock
// X with R retired the count cannot reach n before X + ⌈(n-R)/(Width·cpb)⌉.
// RetireTo runs the lane to that clock, reads the count again and
// repeats, so it returns the first clock at which a loop of Step and
// DomainInstructions would read at least n.
func (s *System) RetireTo(ctx context.Context, domain int, n, limit int64) (clock int64, ok bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	l, c, st := s.domainCore(domain)
	perBus := int64(c.Width) * l.cpb
	stop := l.clock + 1
	for {
		l.sync(c)
		if left := n - st.Instructions; left > 0 {
			stop = max(stop, l.clock+(left+perBus-1)/perBus)
		} else if l.clock >= stop {
			return l.clock, true
		}
		if l.clock >= limit {
			return l.clock, false
		}
		l.run(ctx, min(stop, limit), 0)
		if l.reason != "" {
			return l.clock, false // canceled
		}
	}
}

// Step advances the system by one DRAM bus cycle: every lane steps once,
// serially, in channel order, so callers that sample state between steps
// (the tests) see every lane at the same cycle.
func (s *System) Step() {
	for _, l := range s.lanes {
		l.step()
	}
}

// step advances the lane by one bus cycle: due queue-pressure spikes are
// delivered, its channels tick, then its cores run the bus cycle's CPU
// cycles. The dense loop ticks every scheduler and runs every core every
// cycle. Otherwise each controller skips its scheduler's tick before the
// scheduler's NextEvent (mem.Controller.Step), and cores run only the
// cycles on which they may interact (stepCores).
func (l *lane) step() {
	l.pumpSpikes()
	for _, ch := range l.chans {
		if l.dense {
			ch.ctl.Tick()
		} else {
			ch.ctl.Step()
		}
	}
	if l.dense {
		for cc := int64(0); cc < l.cpb; cc++ {
			for _, c := range l.cores {
				c.Cycle()
			}
		}
	} else {
		l.stepCores()
	}
	l.clock++
}

// stepCores runs the interacting CPU cycles of the current bus cycle in
// the dense loop's order, CPU cycle first and then core index: each core
// whose next interaction falls on the cycle applies what it owes, runs
// the cycle and replans. Every other cycle is interaction-free and stays
// owed, so cores never observe one another out of order.
func (l *lane) stepCores() {
	end := (l.clock + 1) * l.cpb
	for l.coreNext < end {
		t, next := l.coreNext, cpu.Forever
		for _, c := range l.cores {
			if c.next == t {
				c.advance(t)
				c.Cycle()
				c.at++
				c.plan()
			}
			next = min(next, c.next)
		}
		l.coreNext = next
	}
}

// FastForward reports what the event-horizon kernel did during Run: the
// number of clock jumps taken and the bus cycles those jumps skipped,
// each summed over the lanes (zero under the dense loop). Under colored
// routing the lanes skip on their own clocks, so the skipped count is
// measured against the sum of the channels' cycles (Run.ChannelCycles)
// and can exceed the merged BusCycles.
func (s *System) FastForward() (jumps, skipped int64) {
	for _, l := range s.lanes {
		jumps += l.ffJumps
		skipped += l.ffSkipped
	}
	return jumps, skipped
}

// horizon returns the highest bus cycle h ≤ max such that every cycle in
// [now, h) is provably a no-op for every component of the lane: each
// channel's controller (its scheduler's own horizon, pending completions,
// injector replays), pending queue-pressure spikes, and the cores'
// earliest planned memory enqueue attempt. Returns the current cycle when
// nothing can be skipped. Horizons err early, never late: a component may
// report an event cycle at which nothing happens (costing one dense step),
// but must never place one after a real state change — that is the
// byte-identity proof obligation (DESIGN.md §13).
func (l *lane) horizon(max int64) int64 {
	now := l.clock
	h := max
	for _, ch := range l.chans {
		e := ch.ctl.NextEvent()
		if e <= now {
			return now
		}
		h = min(h, e)
	}
	for _, sp := range l.spikes {
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
	hc := l.coreNext / l.cpb
	if hc <= now {
		return now
	}
	return min(h, hc)
}

// skipTo jumps the lane's clock from the current cycle to h: every
// controller's clock advances, and the cores, whose cycles up to h are
// interaction-free, keep owing them.
func (l *lane) skipTo(h int64) {
	n := h - l.clock
	for _, ch := range l.chans {
		ch.ctl.AdvanceIdle(n)
	}
	l.clock = h
	l.ffJumps++
	l.ffSkipped += n
}

// pumpSpikes force-feeds due queue-pressure spikes into their domain's
// read queue, retrying each cycle while the queue is full.
func (l *lane) pumpSpikes() {
	for _, sp := range l.spikes {
		if l.clock < sp.at {
			continue
		}
		for sp.next < len(sp.addrs) && sp.mem.EnqueueRead(sp.domain, sp.addrs[sp.next], nil) {
			sp.next++
		}
	}
}

// reads sums the demand reads the lane's channels completed.
func (l *lane) reads() int64 {
	var n int64
	for _, ch := range l.chans {
		n += ch.ctl.CompletedReads()
	}
	return n
}

// Run executes until TargetReads demand reads completed or the max-cycle
// watchdog fires, and returns the collected statistics. A watchdog stop yields
// a partial Result with Truncated set instead of an error: the statistics
// up to the stop are still valid.
func (s *System) Run() Result { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is polled
// once per 8192-bus-cycle window, so a canceled sweep cell stops within a
// few thousand bus cycles instead of stalling its worker pool.
// Cancellation truncates the run exactly like a watchdog stop.
//
// Each lane runs to its own read target, so under colored routing every
// channel stops exactly where the standalone run of its domain block
// would, and a lane stopped by the watchdog or the context truncates only
// its own channel's Result. A one-lane system runs on the caller's
// goroutine; runLanes runs a multi-lane system's lanes concurrently.
func (s *System) RunContext(ctx context.Context) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	max := s.cfg.MaxBusCycles
	if max == 0 {
		max = 40_000_000
	}
	if len(s.lanes) == 1 {
		s.lanes[0].run(ctx, max, s.cfg.TargetReads)
	} else {
		s.runLanes(ctx, max)
	}
	return s.collect()
}

// runLanes runs lane 0 on the caller's goroutine and every other lane on
// a goroutine of its own, and returns once every lane has. Then the first
// panic in channel order is re-raised on the caller's goroutine, so a
// recovering caller (a parallel.Map cell, the daemon's quarantine) still
// catches it.
func (s *System) runLanes(ctx context.Context, max int64) {
	panics := make([]any, len(s.lanes))
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		s.lanes[i].run(ctx, max, s.cfg.TargetReads)
	}
	var wg sync.WaitGroup
	wg.Add(len(s.lanes) - 1)
	for i := 1; i < len(s.lanes); i++ {
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// run is the kernel loop: it steps the lane until its channels complete
// target demand reads (0: run to max), the max-cycle watchdog fires, or
// ctx is canceled, and records why a run stopped short in l.reason.
func (l *lane) run(ctx context.Context, max, target int64) {
	l.reason = ""
	// The cancellation poll fires once per 8192-cycle window of the lane's
	// clock. The dense loop lands exactly on each multiple of 8192; a
	// fast-forward jump may overshoot one, in which case the poll runs at
	// the first cycle past it — same cadence, and only cancellation timing
	// (inherently wall-clock-dependent) can observe the difference.
	var nextPoll int64
	for {
		if l.clock >= max {
			// With a zero target a fixed-duration run is intentional (the
			// fault campaign needs cycle-aligned runs); only flag truncation
			// when a read target went unmet.
			if target > 0 {
				l.reason = fmt.Sprintf("max-cycle watchdog: %d bus cycles without reaching %d reads", max, target)
			}
			return
		}
		if l.clock >= nextPoll {
			nextPoll = l.clock - l.clock%8192 + 8192
			select {
			case <-ctx.Done():
				l.reason = fmt.Sprintf("context canceled at bus cycle %d: %v", l.clock, ctx.Err())
				return
			default:
			}
		}
		if !l.dense {
			if h := l.horizon(max); h > l.clock {
				l.skipTo(h)
				if l.clock >= max {
					continue // let the watchdog classify the stop
				}
				// Fall through: the cycle we landed on hosts the next event,
				// so the dense step runs now rather than paying a second
				// horizon computation that would just return "no skip".
			}
		}
		l.step()
		if target > 0 && l.reads() >= target {
			return
		}
	}
}

// collect assembles the run's Result: a single channel's own Result, or
// the merge of N channels' Results.
func (s *System) collect() Result {
	for _, l := range s.lanes {
		l.sync(l.cores...)
	}
	var res Result
	if len(s.chans) == 1 {
		res = s.chans[0].result(s.lanes[0].reason)
		res.Trace = s.chans[0].ctl.Obs
	} else {
		res = s.merge()
	}
	if s.cfg.Observe != nil {
		res.Metrics = s.buildMetrics(&res)
	}
	return res
}

// result is the channel's own Result, truncated with the given reason
// when it is not empty.
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
	if reason != "" {
		r.Truncated = true
		r.TruncateReason = reason
	}
	return r
}

// merge assembles a multi-channel run's Result. Every channel's own
// Result goes into PerChannel, and the merged Run reports BusCycles as the
// wall-clock span (the max across channels), the per-channel cycle counts
// in ChannelCycles, and every hardware counter summed — see stats.Run.
// Blocked channels' domain blocks concatenate in channel order, and each
// is truncated with its own lane; interleaved domains sum every channel's
// memory-side fields into the cores' CPU-side statistics. The merged
// Result is truncated with the first truncated lane, in channel order.
func (s *System) merge() Result {
	domains := len(s.cfg.Mix.Profiles)
	blocked := s.coreStats == nil
	merged := stats.Run{Workload: s.cfg.Mix.Name}
	if blocked {
		merged.Scheduler = fmt.Sprintf("%dch/%s", len(s.chans), s.cfg.Scheduler)
	} else {
		merged.Scheduler = fmt.Sprintf("%dch-interleaved/%s", len(s.chans), s.cfg.Scheduler)
	}

	per := make([]Result, len(s.chans))
	reports := make([]*fault.Report, len(per))
	var fsTotal *core.FSStats
	for c, ch := range s.chans {
		reason := "" // interleaved channels share the run's one read target
		if blocked {
			reason = s.lanes[c].reason
		}
		r := ch.result(reason)
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
	for _, l := range s.lanes {
		if l.reason != "" {
			res.Truncated = true
			res.TruncateReason = l.reason
			break
		}
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

// busCycles is the wall-clock span of the run so far: the latest lane
// clock.
func (s *System) busCycles() int64 {
	var n int64
	for _, l := range s.lanes {
		n = max(n, l.clock)
	}
	return n
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
		emit("bus_cycles", float64(s.busCycles()))
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
