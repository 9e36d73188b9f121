// Package audit is the adversarial leakage-audit engine: it attacks a
// scheduler configuration with a library of parameterized covert-channel
// strategies, adaptively refines the most promising ones, certifies the
// best attack statistically over a multi-seed campaign, and emits a
// deterministic machine-readable LeakageCertificate.
//
// The design answers the critique Gong & Kiyavash level at fixed-strategy
// leakage evaluations: a security claim only holds against the *best*
// adversary, and "zero leakage" needs calibration against the null of
// identical observable distributions, not a point estimate. The engine
// therefore searches sender modulation and receiver window jointly,
// then reports permutation-test p-values and bias-corrected mutual
// information rather than raw statistics. Anti-vacuity is built in: any
// runtime-monitor violation observed during the campaign (e.g. an
// injected timing fault breaking the Fixed Service premises) forces a
// FAIL verdict — the auditor must catch a broken implementation, not
// just bless a working one.
//
// Determinism contract: for fixed options the certificate bytes are
// identical across worker counts, process restarts, and direct-vs-daemon
// execution. Per-attack seeds derive from attack names, never from
// evaluation order; every random draw (message shuffle, permutation
// tests) is seeded from Options.Seed.
package audit

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"fsmem/internal/addr"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/leakage"
	"fsmem/internal/parallel"
	"fsmem/internal/sim"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// Campaign defaults, sized so a full 8-scheduler audit stays interactive
// while keeping the statistics sound (199 permutation rounds put the
// smallest reachable p-value at 0.005, well under the 0.05 gate).
const (
	DefaultDomains      = 4
	DefaultBits         = 16
	DefaultWindow       = 10_000
	DefaultSeeds        = 3
	DefaultPermutations = 199
	DefaultRounds       = 2
	// MIBins is the histogram resolution of the MI estimators.
	MIBins = 16
	// topK is how many of the best-ranked attacks each refinement round
	// mutates.
	topK = 3
	// busHz is DDR3-1600's 800 MHz bus clock, matching dram.DDR3_1600's
	// timing grid; certificates convert a window's BER into bits per
	// second at this rate.
	busHz = 800e6
	// earlyExitExploit stops the adaptive search once an attack is this
	// far from coin-flipping: the channel is already decisively broken
	// open, further refinement cannot change the verdict.
	earlyExitExploit = 0.45
)

// Options parameterizes one audit campaign. Zero values take the
// defaults above; Bits is rounded up to even so a balanced message makes
// a silent channel decode to BER exactly 0.5.
type Options struct {
	Domains int
	Bits    int
	// WindowBusCycles is the base receiver window the strategy library
	// starts from; the search explores multiples of it.
	WindowBusCycles int64
	Seed            uint64
	// Seeds is the number of certification seeds the best attack is
	// re-run under.
	Seeds        int
	Permutations int
	// Rounds bounds the adaptive refinement iterations.
	Rounds int
	// Workers bounds the parallel fan-out (0 = GOMAXPROCS). Certificates
	// are byte-identical for every value.
	Workers int
	// FaultPlan, when non-empty, names a fault.CampaignPlans plan
	// injected into every window — the anti-vacuity hook.
	FaultPlan string
	FaultSeed uint64

	// Channels audits an N-channel fabric (0 or 1 = the classic
	// single-channel machine); Routing selects how requests map to
	// channels. Interleaved routing stripes every domain across all
	// channels — shared FR-FCFS queues on every channel — so a baseline
	// interleaved fabric must come back LEAKY while colored Fixed
	// Service stays SECURE.
	Channels int
	Routing  addr.Routing

	// Progress, when non-nil, is called after each completed evaluation
	// with the campaign stage and running counts. It may be called from
	// multiple goroutines.
	Progress func(stage string, done, total int)
	// Metrics, when non-nil, accumulates live campaign counters.
	Metrics *Metrics
}

// Metrics holds live campaign counters, safe for concurrent update. It
// implements obs.MetricSource structurally via ObsMetrics.
type Metrics struct {
	AttacksEvaluated atomic.Int64
	// WindowsSimulated counts the covert-channel windows simulated: one
	// per bit value an evaluation's message sends (see
	// leakage.RunChannel), not one per message bit.
	WindowsSimulated  atomic.Int64
	MonitorViolations atomic.Int64
	CertifyRuns       atomic.Int64
}

// ObsMetrics emits the counters under stable names.
func (m *Metrics) ObsMetrics(emit func(name string, value float64)) {
	emit("attacks_evaluated", float64(m.AttacksEvaluated.Load()))
	emit("windows_simulated", float64(m.WindowsSimulated.Load()))
	emit("monitor_violations", float64(m.MonitorViolations.Load()))
	emit("certify_runs", float64(m.CertifyRuns.Load()))
}

func (o Options) withDefaults() Options {
	if o.Domains == 0 {
		o.Domains = DefaultDomains
	}
	if o.Bits == 0 {
		o.Bits = DefaultBits
	}
	o.Bits += o.Bits % 2 // balanced message needs an even length
	if o.WindowBusCycles == 0 {
		o.WindowBusCycles = DefaultWindow
	}
	if o.Seeds == 0 {
		o.Seeds = DefaultSeeds
	}
	if o.Permutations == 0 {
		o.Permutations = DefaultPermutations
	}
	if o.Rounds == 0 {
		o.Rounds = DefaultRounds
	}
	if o.FaultPlan == "" {
		// A fault seed only means something alongside a fault plan; drop a
		// dangling one so it can't differentiate otherwise-identical
		// certificates.
		o.FaultSeed = 0
	}
	return o
}

// Check fills the campaign defaults into the options and applies the
// audit's acceptance rules for scheduler k, returning the options Run
// would run or the config error it would fail with. Run calls it, and so
// does any layer that accepts an audit before running it (the daemon at
// submission).
func (o Options) Check(k sim.SchedulerKind) (Options, error) {
	o = o.withDefaults()
	return o, o.validate(k)
}

func (o Options) validate(k sim.SchedulerKind) error {
	switch {
	case o.Domains < 2:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "need a receiver and at least one sender domain, got %d", o.Domains)
	case o.Bits < 2:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "message must be at least 2 bits, got %d", o.Bits)
	case o.WindowBusCycles <= 0:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "window must be positive, got %d bus cycles", o.WindowBusCycles)
	case o.Seeds < 1:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "need at least one certification seed, got %d", o.Seeds)
	case o.Permutations < 19:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "need at least 19 permutation rounds for a p < %.2f to be reachable, got %d", Alpha, o.Permutations)
	case o.Rounds < 0:
		return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "search rounds must be non-negative, got %d", o.Rounds)
	}
	if o.FaultPlan != "" {
		if _, ok := fault.PlanByName(o.FaultPlan, o.Domains, o.FaultSeed); !ok {
			return fsmerr.New(fsmerr.CodeConfig, "audit.Run", "unknown fault plan %q", o.FaultPlan)
		}
	}
	if err := sim.CheckFabric(o.Channels, o.Routing, o.Domains); err != nil {
		return err
	}
	// Every evaluation runs the DefaultConfig of its mix on this fabric.
	cfg := sim.DefaultConfig(workload.Mix{}, k)
	cfg.Channels, cfg.Routing = o.Channels, o.Routing
	return sim.CheckScheduler(cfg, o.Domains)
}

// Message builds the balanced, seed-shuffled bit string every evaluation
// transmits: exactly half ones, so a channel that carries nothing decodes
// to BER exactly 0.5 under the degenerate all-zeros threshold.
func Message(bits int, seed uint64) []bool {
	msg := make([]bool, bits)
	for i := 0; i < bits/2; i++ {
		msg[i] = true
	}
	rng := trace.NewRNG(parallel.DeriveSeed(seed, "audit/message"))
	for i := len(msg) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		msg[i], msg[j] = msg[j], msg[i]
	}
	return msg
}

// outcome pairs an attack with its exploration run.
type outcome struct {
	attack Attack
	run    leakage.ChannelRun
}

func exploit(r leakage.ChannelRun) float64 {
	d := r.Result.BitErrorRate - 0.5
	if d < 0 {
		d = -d
	}
	return d
}

// decodedBER is the attacker's polarity-calibrated bit error rate. The
// raw decoder thresholds "high observable = 1", so an anti-correlated
// channel reports a raw BER near 1 — but a real receiver pins the
// threshold direction with a known preamble, decoding that channel just
// as cleanly. Certificates therefore report min(raw, 1-raw), per run.
func decodedBER(raw float64) float64 {
	if raw > 0.5 {
		return 1 - raw
	}
	return raw
}

// rank orders outcomes by exploit score descending, attack name ascending
// — a total order independent of evaluation order.
func rank(results []outcome) []outcome {
	out := append([]outcome(nil), results...)
	sort.Slice(out, func(i, j int) bool {
		ei, ej := exploit(out[i].run), exploit(out[j].run)
		if ei != ej {
			return ei > ej
		}
		return out[i].attack.Name < out[j].attack.Name
	})
	return out
}

// Run executes a full audit campaign against one scheduler and returns
// its certificate.
func Run(ctx context.Context, k sim.SchedulerKind, o Options) (*LeakageCertificate, error) {
	o, err := o.Check(k)
	if err != nil {
		return nil, err
	}
	var plan *fault.Plan
	if o.FaultPlan != "" {
		plan, _ = fault.PlanByName(o.FaultPlan, o.Domains, o.FaultSeed) // Check found it
	}
	msg := Message(o.Bits, o.Seed)

	var done atomic.Int64
	evaluate := func(stage string, batch []Attack, total int, seedFor func(a Attack) uint64) ([]leakage.ChannelRun, error) {
		cells := make([]parallel.Cell[leakage.ChannelRun], len(batch))
		for i, a := range batch {
			a := a
			cells[i] = parallel.Cell[leakage.ChannelRun]{
				Key: "audit/" + stage + "/" + a.Name,
				Run: func(ctx context.Context) (leakage.ChannelRun, error) {
					run, err := leakage.RunChannel(ctx, k, msg, leakage.ChannelParams{
						Domains:         o.Domains,
						Probe:           a.Probe,
						On:              a.On,
						Off:             a.Off,
						WindowBusCycles: a.WindowBusCycles,
						Seed:            seedFor(a),
						Fault:           plan,
						Channels:        o.Channels,
						Routing:         o.Routing,
					})
					if err != nil {
						return leakage.ChannelRun{}, err
					}
					if m := o.Metrics; m != nil {
						m.WindowsSimulated.Add(int64(run.Simulated))
						m.MonitorViolations.Add(int64(run.MonitorViolations))
					}
					if o.Progress != nil {
						o.Progress(stage, int(done.Add(1)), total)
					}
					return run, nil
				},
			}
		}
		return parallel.Map(ctx, o.Workers, cells)
	}

	// Phase 1: explore the strategy library, then adaptively refine the
	// top performers. Seeds derive from attack names so a result never
	// depends on what else is in flight.
	attackSeed := func(a Attack) uint64 { return parallel.DeriveSeed(o.Seed, "audit/attack/"+a.Name) }
	library := Library(o.WindowBusCycles)
	seen := map[string]bool{}
	for _, a := range library {
		seen[a.Name] = true
	}
	runs, err := evaluate("explore", library, len(library), attackSeed)
	if err != nil {
		return nil, err
	}
	var results []outcome
	violations := 0
	absorb := func(batch []Attack, runs []leakage.ChannelRun) {
		for i, r := range runs {
			results = append(results, outcome{batch[i], r})
			violations += r.MonitorViolations
		}
		if m := o.Metrics; m != nil {
			m.AttacksEvaluated.Add(int64(len(batch)))
		}
	}
	absorb(library, runs)

	for round := 0; round < o.Rounds; round++ {
		ranked := rank(results)
		if exploit(ranked[0].run) >= earlyExitExploit {
			break // channel already decisively open; refinement can't change the verdict
		}
		var batch []Attack
		for _, t := range ranked[:min(topK, len(ranked))] {
			for _, n := range Neighbors(t.attack, o.WindowBusCycles) {
				if !seen[n.Name] {
					seen[n.Name] = true
					batch = append(batch, n)
				}
			}
		}
		if len(batch) == 0 {
			break
		}
		runs, err := evaluate(fmt.Sprintf("refine-%d", round+1), batch, len(batch), attackSeed)
		if err != nil {
			return nil, err
		}
		absorb(batch, runs)
	}

	ranked := rank(results)
	best := ranked[0].attack

	// Phase 2: certify the best attack over independent seeds, pooling
	// the per-class observables for the statistics.
	certifySeeds := make([]uint64, o.Seeds)
	certifyAttacks := make([]Attack, o.Seeds)
	for i := range certifySeeds {
		certifySeeds[i] = parallel.DeriveSeed(o.Seed, fmt.Sprintf("audit/certify/%d", i))
		a := best
		a.Name = fmt.Sprintf("%s@%d", best.Name, i)
		certifyAttacks[i] = a
	}
	seedByName := map[string]uint64{}
	for i, a := range certifyAttacks {
		seedByName[a.Name] = certifySeeds[i]
	}
	certRuns, err := evaluate("certify", certifyAttacks, len(certifyAttacks), func(a Attack) uint64 { return seedByName[a.Name] })
	if err != nil {
		return nil, err
	}
	var class0, class1 []float64
	berSum := 0.0
	for _, r := range certRuns {
		class0 = append(class0, r.Class0...)
		class1 = append(class1, r.Class1...)
		berSum += decodedBER(r.Result.BitErrorRate)
		violations += r.MonitorViolations
	}
	if m := o.Metrics; m != nil {
		m.CertifyRuns.Add(int64(len(certRuns)))
	}

	miStat := func(a, b []float64) float64 { return leakage.MutualInformationBits(a, b, MIBins) }
	stats := StatBlock{
		BitErrorRate: berSum / float64(len(certRuns)),
		MIBits:       leakage.MutualInformationMillerMadow(class0, class1, MIBins),
		MIPValue:     leakage.PermutationPValue(class0, class1, miStat, o.Permutations, parallel.DeriveSeed(o.Seed, "audit/perm/mi")),
		KSStat:       leakage.KolmogorovSmirnov(class0, class1),
		KSPValue:     leakage.PermutationPValue(class0, class1, leakage.KolmogorovSmirnov, o.Permutations, parallel.DeriveSeed(o.Seed, "audit/perm/ks")),
	}

	verdict := VerdictSecure
	berDist := stats.BitErrorRate - 0.5
	if berDist < 0 {
		berDist = -berDist
	}
	switch {
	case violations > 0:
		verdict = VerdictFail
	case berDist > BERMargin || stats.MIPValue < Alpha || stats.KSPValue < Alpha:
		verdict = VerdictLeaky
	}

	attacks := make([]AttackOutcome, len(ranked))
	for i, r := range ranked {
		attacks[i] = AttackOutcome{
			Name:         r.attack.Name,
			BitErrorRate: decodedBER(r.run.Result.BitErrorRate),
			Exploit:      exploit(r.run),
		}
	}

	cert := &LeakageCertificate{
		Version:            1,
		Scheduler:          k.String(),
		Verdict:            verdict,
		Domains:            o.Domains,
		Bits:               o.Bits,
		Seed:               o.Seed,
		CertifySeeds:       certifySeeds,
		Permutations:       o.Permutations,
		SearchRounds:       o.Rounds,
		Fault:              o.FaultPlan,
		FaultSeed:          o.FaultSeed,
		MonitorViolations:  violations,
		BestAttack:         best,
		Stats:              stats,
		CapacityBitsPerSec: Capacity(stats.BitErrorRate, best.WindowBusCycles, busHz),
		BusHz:              busHz,
		Attacks:            attacks,
	}
	if o.Channels > 1 {
		cert.Channels = o.Channels
		cert.Routing = o.Routing.String()
	}
	return cert, nil
}

// FragmentFor computes the single-strategy certificate fragment for one
// finished channel run — the shared schema between `cmd/leakage -json`
// and full audit certificates.
func FragmentFor(a Attack, run leakage.ChannelRun, permutations int, seed uint64) Fragment {
	miStat := func(x, y []float64) float64 { return leakage.MutualInformationBits(x, y, MIBins) }
	return Fragment{
		Scheduler: run.Result.Scheduler,
		Attack:    a,
		Stats: StatBlock{
			BitErrorRate: decodedBER(run.Result.BitErrorRate),
			MIBits:       leakage.MutualInformationMillerMadow(run.Class0, run.Class1, MIBins),
			MIPValue:     leakage.PermutationPValue(run.Class0, run.Class1, miStat, permutations, parallel.DeriveSeed(seed, "fragment/perm/mi")),
			KSStat:       leakage.KolmogorovSmirnov(run.Class0, run.Class1),
			KSPValue:     leakage.PermutationPValue(run.Class0, run.Class1, leakage.KolmogorovSmirnov, permutations, parallel.DeriveSeed(seed, "fragment/perm/ks")),
		},
		MonitorViolations: run.MonitorViolations,
	}
}
