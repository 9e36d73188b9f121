// Package leakage measures timing-channel information flow through the
// memory controller: the Figure 4 execution-profile experiment (an attacker
// thread timed against co-runners of different memory intensity), a
// mutual-information estimate over the attacker's epoch timings, and a
// covert-channel encode/decode harness.
package leakage

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fsmem/internal/addr"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/parallel"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// Milestone is Figure 4's sampling interval: the attacker's progress is
// recorded every 10,000 retired instructions, as in the paper.
const Milestone = 10_000

// Profile is one execution profile: the CPU cycle at which the attacker
// domain crossed each instruction milestone (Figure 4's Y values; the
// paper samples every 10K instructions).
type Profile struct {
	Scheduler   string
	CoRunner    string
	Milestone   int64 // instructions per sample
	CyclesAt    []int64
	Instruction []int64
}

// CollectProfile runs the attacker benchmark as domain 0 against
// (domains-1) co-runner copies of coRunner, sampling the attacker's
// progress every milestone instructions until it retires totalInstr.
// channels and routing select the memory fabric (channels <= 1 is the
// classic single-channel machine; routing is ignored there).
func CollectProfile(k sim.SchedulerKind, attacker workload.Profile, coRunner workload.Profile,
	domains int, milestone, totalInstr int64, seed uint64,
	channels int, routing addr.Routing) (Profile, error) {
	return collectProfile(context.Background(), k, attacker, coRunner, domains, milestone, totalInstr, seed, channels, routing, nil)
}

// collectProfile is CollectProfile under a context, polled every 8192 bus
// cycles like sim.RunContext's watchdog: a canceled collection returns a
// canceled-coded error instead of running to its instruction budget.
// mutate, when non-nil, edits the simulation config before the system is
// built (the non-interference feature tests turn features on with it).
func collectProfile(ctx context.Context, k sim.SchedulerKind, attacker workload.Profile, coRunner workload.Profile,
	domains int, milestone, totalInstr int64, seed uint64,
	channels int, routing addr.Routing, mutate func(*sim.Config)) (Profile, error) {

	mix := workload.Mix{Name: "leakage", Profiles: make([]workload.Profile, domains)}
	mix.Profiles[0] = attacker
	for d := 1; d < domains; d++ {
		mix.Profiles[d] = coRunner
	}
	cfg := sim.DefaultConfig(mix, k)
	cfg.Seed = seed
	cfg.TargetReads = 0 // run on instruction budget instead
	cfg.MaxBusCycles = 200_000_000
	cfg.Channels = channels
	cfg.Routing = routing
	if mutate != nil {
		mutate(&cfg)
	}

	sys, err := sim.New(cfg)
	if err != nil {
		return Profile{}, err
	}
	prof := Profile{
		Scheduler: k.String(),
		CoRunner:  coRunner.Name,
		Milestone: milestone,
	}
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

// Comparison is one scheduler's Figure 4 result: the attacker's profile
// against idle co-runners (Quiet) and against streaming ones (Loud), and
// the mutual information between the co-runner load and the attacker's
// epoch durations (16-bin plug-in estimate, in bits).
type Comparison struct {
	Scheduler             sim.SchedulerKind
	Quiet, Loud           Profile
	MutualInformationBits float64
}

// CompareParams parameterizes the Figure 4 experiment.
type CompareParams struct {
	// Attacker runs as domain 0 against Domains-1 copies of a co-runner.
	Attacker workload.Profile
	Domains  int
	// Schedulers are compared in order; Samples is the number of
	// milestones each profile records.
	Schedulers []sim.SchedulerKind
	Samples    int64
	Seed       uint64
	// Channels and Routing select the memory fabric (see CollectProfile).
	Channels int
	Routing  addr.Routing
	// Workers bounds the pool the profiles are collected on
	// (0 = GOMAXPROCS); the result is identical for every value.
	Workers int
	// OnProfile, when non-nil, is called once per collected profile with
	// its scheduler and co-runner name, from the pool worker that
	// collected it.
	OnProfile func(k sim.SchedulerKind, coRunner string)
}

// Check returns the config error Compare fails with for p, or nil: the
// attacker needs a domain of its own, and the fabric shape and every
// scheduler's capacity must be ones sim accepts.
func (p CompareParams) Check() error {
	if p.Domains < 1 {
		return fsmerr.New(fsmerr.CodeConfig, "leakage.Compare", "need at least the attacker's domain, got %d domains", p.Domains)
	}
	if err := sim.CheckFabric(p.Channels, p.Routing, p.Domains); err != nil {
		return err
	}
	for _, k := range p.Schedulers {
		// Every profile runs the DefaultConfig of its mix on this fabric.
		cfg := sim.DefaultConfig(workload.Mix{}, k)
		cfg.Channels, cfg.Routing = p.Channels, p.Routing
		if err := sim.CheckScheduler(cfg, p.Domains); err != nil {
			return err
		}
	}
	return nil
}

// Compare runs the Figure 4 experiment: every scheduler against an idle
// (0.01 MPKI) and a streaming (45 MPKI) co-runner, the profiles collected
// on a worker pool that passes cancellation to every running collection.
// It returns one Comparison per scheduler, in scheduler order.
func Compare(ctx context.Context, p CompareParams) ([]Comparison, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	coRunners := []workload.Profile{workload.Synthetic("idle", 0.01), workload.Synthetic("streaming", 45)}
	var cells []parallel.Cell[Profile]
	for _, k := range p.Schedulers {
		for _, co := range coRunners {
			cells = append(cells, parallel.Cell[Profile]{
				Key: fmt.Sprintf("leakage/%v/%s", k, co.Name),
				Run: func(ctx context.Context) (Profile, error) {
					prof, err := collectProfile(ctx, k, p.Attacker, co, p.Domains, Milestone, p.Samples*Milestone,
						p.Seed, p.Channels, p.Routing, nil)
					if err == nil && p.OnProfile != nil {
						p.OnProfile(k, co.Name)
					}
					return prof, err
				},
			})
		}
	}
	profiles, err := parallel.Map(ctx, p.Workers, cells)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(p.Schedulers))
	for i, k := range p.Schedulers {
		quiet, loud := profiles[2*i], profiles[2*i+1]
		out[i] = Comparison{Scheduler: k, Quiet: quiet, Loud: loud,
			MutualInformationBits: MutualInformationBits(EpochDurations(quiet), EpochDurations(loud), 16)}
	}
	return out, nil
}

// Divergence returns the maximum absolute difference between two profiles'
// milestone times, normalized by the larger final time. Zero means the
// attacker's observable progress is identical — the paper's
// non-interference claim.
func Divergence(a, b Profile) (float64, error) {
	n := len(a.CyclesAt)
	if len(b.CyclesAt) < n {
		n = len(b.CyclesAt)
	}
	if n == 0 {
		return 0, fmt.Errorf("leakage: empty profile")
	}
	var maxDiff float64
	for i := 0; i < n; i++ {
		d := math.Abs(float64(a.CyclesAt[i] - b.CyclesAt[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	den := float64(a.CyclesAt[n-1])
	if f := float64(b.CyclesAt[n-1]); f > den {
		den = f
	}
	return maxDiff / den, nil
}

// Identical reports whether two profiles are bit-identical over their
// common prefix (the strict form of non-interference).
func Identical(a, b Profile) bool {
	n := len(a.CyclesAt)
	if len(b.CyclesAt) < n {
		n = len(b.CyclesAt)
	}
	for i := 0; i < n; i++ {
		if a.CyclesAt[i] != b.CyclesAt[i] {
			return false
		}
	}
	return n > 0
}

// EpochDurations converts a profile into per-milestone durations, the
// attacker's observable samples.
func EpochDurations(p Profile) []float64 {
	out := make([]float64, 0, len(p.CyclesAt))
	prev := int64(0)
	for _, c := range p.CyclesAt {
		out = append(out, float64(c-prev))
		prev = c
	}
	return out
}

// MutualInformationBits estimates I(victim class; epoch duration) in bits
// with a plug-in histogram estimator: samples from class 0 and class 1 are
// the attacker's epoch durations under two victim behaviors. Zero bits
// means the observable distribution carries no information about the
// victim; for a binary secret the maximum is 1 bit.
func MutualInformationBits(class0, class1 []float64, bins int) float64 {
	if bins <= 0 || len(class0) == 0 || len(class1) == 0 {
		return 0
	}
	c0, c1, ok := histogram2(class0, class1, bins)
	if !ok {
		return 0 // all observations identical: the channel is provably silent
	}
	n0, n1 := float64(len(class0)), float64(len(class1))
	// Equal class priors.
	mi := 0.0
	for i := 0; i < bins; i++ {
		p0, p1 := float64(c0[i])/n0, float64(c1[i])/n1
		m := (p0 + p1) / 2
		for _, p := range []float64{p0, p1} {
			if p > 0 && m > 0 {
				mi += 0.5 * p * math.Log2(p/m)
			}
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// KolmogorovSmirnov returns the two-sample KS statistic between the
// attacker's epoch-duration distributions under two victim behaviors:
// sup_x |F0(x) - F1(x)|, in [0, 1]. Zero means the distributions are
// indistinguishable; the baseline controller typically scores near 1.
func KolmogorovSmirnov(class0, class1 []float64) float64 {
	if len(class0) == 0 || len(class1) == 0 {
		return 0
	}
	s0 := append([]float64(nil), class0...)
	s1 := append([]float64(nil), class1...)
	sort.Float64s(s0)
	sort.Float64s(s1)
	var i, j int
	var d float64
	for i < len(s0) && j < len(s1) {
		// Step past the smallest current value in BOTH samples, so ties
		// advance the two empirical CDFs together.
		v := s0[i]
		if s1[j] < v {
			v = s1[j]
		}
		for i < len(s0) && s0[i] == v {
			i++
		}
		for j < len(s1) && s1[j] == v {
			j++
		}
		f0 := float64(i) / float64(len(s0))
		f1 := float64(j) / float64(len(s1))
		if diff := math.Abs(f0 - f1); diff > d {
			d = diff
		}
	}
	return d
}

// CovertResult summarizes a covert-channel attempt.
type CovertResult struct {
	Scheduler string
	Bits      int
	Errors    int
	// Decoded holds the bits the receiver recovered, aligned with the
	// message.
	Decoded []bool
	// BitErrorRate 0 means a perfect channel; 0.5 means the receiver
	// learned nothing.
	BitErrorRate float64
}

// ChannelParams fully parameterizes one covert-channel attempt: the
// receiver's probe workload, the sender's per-bit profiles, the
// per-window observation length, and an optional fault plan injected
// into every window (the audit engine's anti-vacuity hook).
type ChannelParams struct {
	// Domains is the number of security domains; domain 0 is the
	// receiver, every other domain runs the sender profile.
	Domains int
	// Probe is the receiver's steady load; On and Off are the sender's
	// profiles for a 1 and a 0 bit respectively.
	Probe, On, Off workload.Profile
	// WindowBusCycles is the fixed per-bit observation window.
	WindowBusCycles int64
	// Seed is the simulation seed, identical for every window so the
	// sender's behavior is the only varying input.
	Seed uint64
	// Fault, when non-nil, runs every window under the given fault plan;
	// the summed monitor verdicts surface in ChannelRun.
	Fault *fault.Plan
	// Channels selects the memory-fabric width; zero or one is the
	// classic single-channel machine. Routing picks how requests map to
	// channels (colored keeps domains on disjoint channels, interleaved
	// stripes every domain across all of them — the configuration whose
	// cross-channel contention the audit engine must flag).
	Channels int
	Routing  addr.Routing
}

// ChannelRun is a decoded covert-channel attempt plus the raw per-window
// observables the statistical certification runs on.
type ChannelRun struct {
	Result CovertResult
	// Durations holds the receiver's observable per window (instructions
	// retired in the fixed window), aligned with the message.
	Durations []float64
	// Class0 and Class1 split Durations by the bit the sender transmitted.
	Class0, Class1 []float64
	// MonitorViolations sums the always-on runtime monitor's verdicts
	// (timing + schedule + scheduler violations) across every window. A
	// nonzero count means the runs cannot certify anything: the premises
	// of the non-interference argument did not hold while measuring.
	MonitorViolations int
	// Simulated counts the windows simulated: one per bit value sent.
	Simulated int
}

// RunChannel runs the parameterized covert channel: domain 0 times a fixed
// probe loop per window while every other domain replays the On profile
// for a 1 bit and the Off profile for a 0 bit; the receiver thresholds its
// window observable halfway between the fastest and slowest windows (the
// calibration a real attacker would do). Every window runs from cycle 0
// under the same seed, so the sender's modulation is the only varying
// input — exactly a sender flipping load phases — and a window's
// simulation is a function of its bit (windowConfig): each bit value is
// simulated once, at its first use, and its windows share that run's
// observable and monitor verdict. A canceled ctx stops the window in
// flight and returns a CodeCanceled error.
func RunChannel(ctx context.Context, k sim.SchedulerKind, message []bool, p ChannelParams) (ChannelRun, error) {
	if p.WindowBusCycles <= 0 {
		return ChannelRun{}, fsmerr.New(fsmerr.CodeConfig, "leakage.RunChannel",
			"window must be positive, got %d bus cycles", p.WindowBusCycles)
	}
	if p.Domains < 2 {
		return ChannelRun{}, fsmerr.New(fsmerr.CodeConfig, "leakage.RunChannel",
			"covert channel needs a receiver and at least one sender domain, got %d", p.Domains)
	}
	if len(message) == 0 {
		return ChannelRun{}, fsmerr.New(fsmerr.CodeConfig, "leakage.RunChannel", "empty message")
	}

	run := ChannelRun{Durations: make([]float64, len(message))}
	// windows[1] is the 1 bit's simulated window, windows[0] the 0 bit's.
	var windows [2]struct {
		simulated  bool
		observable float64
		violations int
	}
	for i, bit := range message {
		w := &windows[0]
		if bit {
			w = &windows[1]
		}
		if !w.simulated {
			res, err := sim.SimulateContext(ctx, windowConfig(k, p, bit))
			if err != nil {
				return ChannelRun{}, err
			}
			// Receiver observable: its own progress in the fixed window.
			w.simulated, w.observable = true, float64(res.Run.Domains[0].Instructions)
			if m := res.Monitor; m != nil {
				w.violations = m.TimingViolations + m.ScheduleViolations + m.SchedulerViolations
			}
			run.Simulated++
		}
		run.Durations[i] = w.observable
		run.MonitorViolations += w.violations
	}

	// Threshold halfway between the fastest and slowest windows. A
	// degenerate spread means the channel carried nothing; everything
	// decodes to 0.
	min, max := run.Durations[0], run.Durations[0]
	for _, d := range run.Durations {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	thr := (min + max) / 2
	errors := 0
	decoded := make([]bool, len(message))
	for i, bit := range message {
		rx := max > min && run.Durations[i] < thr // contention slows the receiver
		decoded[i] = rx
		if rx != bit {
			errors++
		}
		if bit {
			run.Class1 = append(run.Class1, run.Durations[i])
		} else {
			run.Class0 = append(run.Class0, run.Durations[i])
		}
	}
	run.Result = CovertResult{
		Scheduler:    k.String(),
		Bits:         len(message),
		Errors:       errors,
		Decoded:      decoded,
		BitErrorRate: float64(errors) / float64(len(message)),
	}
	return run, nil
}

// windowConfig is the config of a window sending bit: the probe in
// domain 0 and the bit's sender profile in every other domain.
func windowConfig(k sim.SchedulerKind, p ChannelParams, bit bool) sim.Config {
	victim := p.Off
	if bit {
		victim = p.On
	}
	mix := workload.Mix{Name: "covert", Profiles: make([]workload.Profile, p.Domains)}
	mix.Profiles[0] = p.Probe
	for d := 1; d < p.Domains; d++ {
		mix.Profiles[d] = victim
	}
	cfg := sim.DefaultConfig(mix, k)
	cfg.Seed = p.Seed
	cfg.TargetReads = 0
	cfg.MaxBusCycles = p.WindowBusCycles
	cfg.Fault = p.Fault
	cfg.Channels = p.Channels
	cfg.Routing = p.Routing
	return cfg
}

// CovertLoads returns the classic covert channel's workloads: the
// receiver's fixed probe, and the sender's burst (a 1 bit) and quiet (a 0
// bit) loads. CovertChannel, cmd/leakage -covert and the audit library's
// intensity attacks all run these.
func CovertLoads() (probe, burst, quiet workload.Profile) {
	return workload.Synthetic("probe", 25), workload.Synthetic("burst", 40), workload.Synthetic("quiet", 0.01)
}

// CovertChannel runs the §2.2-style covert channel with the classic
// burst/idle sender and a fixed probe receiver (CovertLoads): the single
// strategy the evaluation always reports. The audit engine generalizes it
// through RunChannel with a whole strategy library. A non-positive window
// is a CodeConfig error rather than a silent zero-window run.
func CovertChannel(k sim.SchedulerKind, domains int, message []bool, windowBusCycles int64, seed uint64) (CovertResult, error) {
	probe, burst, quiet := CovertLoads()
	run, err := RunChannel(context.Background(), k, message, ChannelParams{
		Domains:         domains,
		Probe:           probe,
		On:              burst,
		Off:             quiet,
		WindowBusCycles: windowBusCycles,
		Seed:            seed,
	})
	if err != nil {
		return CovertResult{}, err
	}
	return run.Result, nil
}
