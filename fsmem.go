// Package fsmem is a cycle-accurate simulator of timing-channel-free DDR3
// memory controllers, reproducing "Avoiding Information Leakage in the
// Memory Controller with Fixed Service Policies" (Shafiee et al.,
// MICRO 2015).
//
// The library contains three layers:
//
//   - a DDR3 channel model with the full JEDEC timing-constraint set and an
//     independent command-stream checker;
//   - memory scheduling policies: an optimized non-secure FR-FCFS baseline,
//     Temporal Partitioning (Wang et al., HPCA 2014), and the paper's Fixed
//     Service (FS) family — rank-partitioned, bank-partitioned, reordered
//     bank-partitioned, no-partitioning, and triple alternation — together
//     with the constraint solver that derives each pipeline's minimal slot
//     spacing from the timing parameters;
//   - a full-system harness: ROB-modeled cores, synthetic SPEC-like
//     workloads, a sandbox prefetcher, a DDR3 energy model, leakage
//     measurement (execution-profile divergence, mutual information, covert
//     channels), and an adversarial leakage auditor that searches an attack
//     library and emits machine-readable certificates (Audit).
//
// Quick start:
//
//	mix, _ := fsmem.RateWorkload("mcf", 8)
//	cfg := fsmem.NewConfig(mix, fsmem.FSRankPart)
//	res, err := fsmem.Simulate(cfg)
//
// Every experiment in the paper's evaluation can be regenerated with
// RunFigure (or the cmd/sweep tool); see EXPERIMENTS.md for the index.
package fsmem

import (
	"context"
	"io"

	"fsmem/internal/addr"
	"fsmem/internal/audit"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/energy"
	"fsmem/internal/experiments"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/leakage"
	"fsmem/internal/obs"
	"fsmem/internal/server"
	"fsmem/internal/sim"
	"fsmem/internal/stats"
	"fsmem/internal/workload"
)

// DRAMParams is the organization and timing parameter set of one DDR3
// channel (Table 1); Config.Channels sets how many channels a system has.
type DRAMParams = dram.Params

// DDR3x1600 returns the paper's DDR3-1600 configuration.
func DDR3x1600() DRAMParams { return dram.DDR3_1600() }

// DDR4x2400 returns a JESD79-4 DDR4-2400 configuration with four bank
// groups per rank; the solver and every FS variant work on it unchanged.
func DDR4x2400() DRAMParams { return dram.DDR4_2400() }

// SchedulerKind selects a memory scheduling policy.
type SchedulerKind = sim.SchedulerKind

// The available scheduling policies.
const (
	Baseline        = sim.Baseline
	TPBank          = sim.TPBank
	TPNone          = sim.TPNone
	FSRankPart      = sim.FSRankPart
	FSBankPart      = sim.FSBankPart
	FSReorderedBank = sim.FSReorderedBank
	FSNoPart        = sim.FSNoPart
	FSNoPartTriple  = sim.FSNoPartTriple
)

// Config describes one simulation run.
type Config = sim.Config

// Result is a completed run's statistics.
type Result = sim.Result

// Run is the statistics bundle of one simulation.
type Run = stats.Run

// Mix is a multiprogrammed workload (one profile per core).
type Mix = workload.Mix

// Profile is a synthetic benchmark model.
type Profile = workload.Profile

// EnergyOpts enables the paper's three FS energy optimizations.
type EnergyOpts = core.EnergyOpts

// NewConfig returns the Table 1 default configuration for a mix and policy.
func NewConfig(mix Mix, k SchedulerKind) Config { return sim.DefaultConfig(mix, k) }

// Simulate builds and runs one simulation.
func Simulate(cfg Config) (Result, error) { return sim.Simulate(cfg) }

// SimulateContext is Simulate with cooperative cancellation: a run cut
// short by the context returns an ErrCanceled error rather than partial
// statistics.
func SimulateContext(ctx context.Context, cfg Config) (Result, error) {
	return sim.SimulateContext(ctx, cfg)
}

// WeightedIPC computes the paper's throughput metric: the sum of per-domain
// IPCs normalized against the same domains under the baseline run.
func WeightedIPC(run, baseline Run) (float64, error) { return stats.WeightedIPC(run, baseline) }

// RateWorkload builds n copies of a named benchmark (the paper's rate mode).
func RateWorkload(name string, n int) (Mix, error) { return workload.Rate(name, n) }

// Workloads lists the available benchmark names.
func Workloads() []string {
	var out []string
	for _, p := range workload.All() {
		out = append(out, p.Name)
	}
	return out
}

// Mix1 and Mix2 are the paper's mixed workloads.
func Mix1() (Mix, error) { return workload.Mix1() }

// Mix2 is the paper's second mixed workload.
func Mix2() (Mix, error) { return workload.Mix2() }

// SyntheticWorkload builds an artificial profile with the given memory
// intensity in misses per kilo-instruction.
func SyntheticWorkload(name string, mpki float64) Profile { return workload.Synthetic(name, mpki) }

// Anchor selects the fixed-periodic event of the FS pipeline solver.
type Anchor = core.Anchor

// The solver anchors.
const (
	FixedData = core.FixedData
	FixedRAS  = core.FixedRAS
	FixedCAS  = core.FixedCAS
)

// PartitionKind is a spatial partitioning policy.
type PartitionKind = addr.PartitionKind

// The spatial partitioning policies.
const (
	PartitionNone    = addr.PartitionNone
	PartitionRank    = addr.PartitionRank
	PartitionBank    = addr.PartitionBank
	PartitionChannel = addr.PartitionChannel
)

// Routing selects how the multi-channel fabric maps requests to channels:
// page-colored by security domain (each domain owns whole channels, so the
// single-channel non-interference argument composes) or address-interleaved
// by column bits (the conventional bandwidth-first layout, which shares
// every channel across domains and is what the auditor flags as LEAKY under
// a Baseline scheduler).
type Routing = addr.Routing

// The fabric routing policies.
const (
	RouteColored     = addr.RouteColored
	RouteInterleaved = addr.RouteInterleaved
)

// RoutingByName parses "colored" or "interleaved" (the cmd flag spellings).
func RoutingByName(name string) (Routing, error) { return addr.RoutingByName(name) }

// MinSlotSpacing solves the paper's Equations 1-4 generalization: the
// smallest conflict-free slot spacing l for an anchor and partitioning mode
// at the given timings (7 for rank partitioning with fixed periodic data at
// the Table 1 parameters).
func MinSlotSpacing(a Anchor, mode PartitionKind, p DRAMParams) (int, error) {
	return core.MinL(a, mode, p)
}

// SolverTable returns minimal l for every anchor/mode combination.
func SolverTable(p DRAMParams) map[string]int { return core.SolverTable(p) }

// MinSlotSpacingRotation solves the G-way bank-group rotation generalizing
// the paper's triple alternation (G=3 on DDR3 recovers l=15; DDR4's native
// bank groups do better via the short cross-group timings).
func MinSlotSpacingRotation(groups int, a Anchor, p DRAMParams) (int, error) {
	return core.MinLRotation(groups, a, p)
}

// SolveConsecutive reproduces the §3.1 N-consecutive-transactions analysis.
func SolveConsecutive(n int, p DRAMParams) (core.ConsecutivePlan, error) {
	return core.SolveConsecutive(n, p)
}

// ExperimentSettings scales the figure harness.
type ExperimentSettings = experiments.Settings

// FigureTable is one regenerated figure.
type FigureTable = experiments.Table

// RunFigures regenerates every evaluation figure at the given scale.
// Figures that fail are skipped; their errors are aggregated in the second
// return value alongside the tables that did regenerate. Each figure's
// simulation grid is sharded across Settings.Workers pool workers
// (0 = GOMAXPROCS); the tables are byte-identical for every worker count.
func RunFigures(s ExperimentSettings) ([]FigureTable, error) {
	return experiments.All(experiments.NewRunner(s))
}

// ObserveOptions configures the observability layer: a bounded ring-buffer
// command/event tracer plus an end-of-run metrics snapshot.
type ObserveOptions = obs.Options

// TraceEvent is one recorded tracer event.
type TraceEvent = obs.Event

// MetricsSnapshot is the sorted end-of-run metrics set.
type MetricsSnapshot = obs.Snapshot

// Observe attaches the observability layer to a configuration: the run
// returns Result.Trace (the command/event ring) and Result.Metrics (the
// end-of-run snapshot). The zero ObserveOptions selects the default trace
// capacity. Observation never alters simulated behavior: with Observe
// unset, instrumentation costs a single nil-check per site.
func Observe(cfg *Config, o ObserveOptions) { cfg.Observe = &o }

// TraceExport writes a run's command/event trace in the named format:
// "jsonl" (the tracer's native line format, readable by cmd/tracedump) or
// "chrome" (a Chrome trace_event JSON array loadable in Perfetto or
// chrome://tracing). The run must have been configured with Observe.
func TraceExport(w io.Writer, res Result, format string) error {
	if res.Trace == nil {
		return fsmerr.New(fsmerr.CodeConfig, "fsmem.TraceExport",
			"run has no trace: configure it with fsmem.Observe before simulating")
	}
	switch format {
	case "jsonl":
		return obs.WriteJSONL(w, res.Trace)
	case "chrome":
		return obs.WriteChrome(w, res.Trace)
	default:
		return fsmerr.New(fsmerr.CodeConfig, "fsmem.TraceExport",
			"unknown trace format %q (want \"jsonl\" or \"chrome\")", format)
	}
}

// ServerOptions configures the fsmemd simulation-service daemon:
// listen address, executor pool width, queue depth, result-cache size,
// rate limiting, and drain behavior.
type ServerOptions = server.Options

// JobRequest is the daemon's job-submission payload (simulation,
// figure-grid, leakage-profile, or fault-campaign work).
type JobRequest = server.JobRequest

// JobStatus is the daemon's job status document.
type JobStatus = server.JobStatus

// Serve runs the simulation-as-a-service daemon (cmd/fsmemd) until ctx
// is canceled, then drains gracefully: in-flight and queued jobs
// finish, new submissions are rejected with 503, and a clean drain
// returns nil. Results are served from a content-addressed cache keyed
// by the same canonical config normalization the experiment harness
// memoizes on, so identical concurrent submissions simulate exactly
// once.
func Serve(ctx context.Context, o ServerOptions) error { return server.Serve(ctx, o) }

// LeakageProfile is an attacker execution profile (Figure 4).
type LeakageProfile = leakage.Profile

// CollectLeakageProfile times an attacker benchmark against co-runners on
// a single-channel system. Use CollectLeakageProfileFabric to profile an
// N-channel fabric.
func CollectLeakageProfile(k SchedulerKind, attacker, coRunner Profile, domains int,
	milestone, totalInstr int64, seed uint64) (LeakageProfile, error) {
	return leakage.CollectProfile(k, attacker, coRunner, domains, milestone, totalInstr, seed,
		1, addr.RouteColored)
}

// CollectLeakageProfileFabric is CollectLeakageProfile over a multi-channel
// fabric: the attacker's milestones are timed while its requests route
// through channels (>= 1) memory channels under the given routing policy.
func CollectLeakageProfileFabric(k SchedulerKind, attacker, coRunner Profile, domains int,
	milestone, totalInstr int64, seed uint64, channels int, routing Routing) (LeakageProfile, error) {
	return leakage.CollectProfile(k, attacker, coRunner, domains, milestone, totalInstr, seed,
		channels, routing)
}

// ProfilesIdentical reports strict non-interference between two profiles.
func ProfilesIdentical(a, b LeakageProfile) bool { return leakage.Identical(a, b) }

// AuditOptions configures the adversarial leakage audit: campaign size,
// adaptive-search depth, certification seeds, permutation rounds, worker
// pool width, and an optional fault plan for anti-vacuity checks. The
// zero value selects the standard campaign.
type AuditOptions = audit.Options

// AuditVerdict classifies a finished audit: SECURE (no attack in the
// library or search neighborhood distinguishes sender bits), LEAKY (some
// attack decodes, or the observables are statistically distinguishable),
// or FAIL (the runtime monitor saw violations, so nothing can be
// certified).
type AuditVerdict = audit.Verdict

// The audit verdicts.
const (
	AuditSecure = audit.VerdictSecure
	AuditLeaky  = audit.VerdictLeaky
	AuditFail   = audit.VerdictFail
)

// LeakageCertificate is the audit's machine-readable output: verdict,
// best attack strategy and parameters, bias-corrected mutual information
// and KS statistics with permutation-test p-values, channel capacity in
// bits per second, and the seeds that make the document reproducible.
type LeakageCertificate = audit.LeakageCertificate

// Audit throws the adversarial strategy library plus an adaptive search
// loop at a scheduler and certifies the best attack found across
// independent seeds. Certificates are byte-identical for every
// AuditOptions.Workers value (also when served by the fsmemd "audit"
// job kind).
func Audit(ctx context.Context, k SchedulerKind, o AuditOptions) (*LeakageCertificate, error) {
	return audit.Run(ctx, k, o)
}

// MarshalLeakageCertificate renders a certificate in the canonical
// newline-terminated single-line JSON encoding the byte-identity
// guarantees are stated over.
func MarshalLeakageCertificate(c *LeakageCertificate) ([]byte, error) {
	return audit.MarshalCertificate(c)
}

// EnergyModel is the Micron-style DDR3 energy model.
type EnergyModel = energy.Model

// NewEnergyModel builds the energy model with typical 4Gb DDR3 currents.
func NewEnergyModel(p DRAMParams) *EnergyModel { return energy.NewModel(p, energy.DDR3_4Gb()) }

// Error is the structured error type every library path returns: a Code
// classifying the failure plus, where meaningful, the offending bus cycle
// and DRAM command. Use errors.As to recover it and ErrorCodeOf for the
// code alone.
type Error = fsmerr.Error

// ErrorCode classifies an Error for programmatic handling.
type ErrorCode = fsmerr.Code

// The error-code taxonomy (see DESIGN.md).
const (
	ErrConfig     = fsmerr.CodeConfig
	ErrWorkload   = fsmerr.CodeWorkload
	ErrTiming     = fsmerr.CodeTiming
	ErrSchedule   = fsmerr.CodeSchedule
	ErrQueue      = fsmerr.CodeQueue
	ErrExperiment = fsmerr.CodeExperiment
	ErrFault      = fsmerr.CodeFault
	ErrCanceled   = fsmerr.CodeCanceled
	ErrPanic      = fsmerr.CodePanic
)

// ErrorCodeOf extracts the ErrorCode of an error, or "" for foreign errors.
func ErrorCodeOf(err error) ErrorCode { return fsmerr.CodeOf(err) }

// FaultPlan is a seeded, deterministic fault-injection plan: DRAM timing
// derates (the monitor's model of the "true" hardware), command-stream
// faults (drop/delay/duplicate on the bus), and load faults (per-domain
// arrival jitter, queue spikes, refresh storms).
type FaultPlan = fault.Plan

// Fault-plan building blocks.
type (
	// CommandFault drops, delays, or duplicates the first matching command.
	CommandFault = fault.CommandFault
	// RankDerate slows one rank (or all, Rank = -1) of the true hardware.
	RankDerate = fault.RankDerate
	// LoadFault perturbs one domain's request stream.
	LoadFault = fault.LoadFault
	// TimingDerate multiplies individual DRAM timing parameters.
	TimingDerate = fault.Derate
	// FaultAction selects what a CommandFault does to the matched command.
	FaultAction = fault.Action
	// LoadKind selects a load-fault flavor.
	LoadKind = fault.LoadKind
)

// Command-fault actions.
const (
	FaultDrop      = fault.ActionDrop
	FaultDelay     = fault.ActionDelay
	FaultDuplicate = fault.ActionDuplicate
)

// Load-fault flavors.
const (
	LoadJitter       = fault.LoadJitter
	LoadQueueSpike   = fault.LoadQueueSpike
	LoadRefreshStorm = fault.LoadRefreshStorm
)

// MonitorReport is the always-on runtime monitor's verdict on a run: shadow
// timing-checker violations, planned-vs-observed schedule divergences
// (Fixed Service only), scheduler-reported violations, and the per-domain
// read-delivery traces the non-interference comparison is built on.
type MonitorReport = fault.Report

// SimulateChaos runs one simulation under a fault plan. The monitor's
// verdict is in Result.Monitor (also populated, without faults, by
// Simulate).
func SimulateChaos(cfg Config, plan *FaultPlan) (Result, error) {
	return sim.SimulateChaos(cfg, plan)
}

// FaultOutcome classifies what one fault plan did to one scheduler, and
// FaultCampaign is the full matrix for one configuration.
type (
	FaultOutcome  = sim.FaultOutcome
	FaultVerdict  = sim.FaultVerdict
	FaultCampaign = sim.CampaignResult
)

// Campaign verdicts.
const (
	FaultDetected   = sim.VerdictDetected
	FaultHarmless   = sim.VerdictHarmless
	FaultUndetected = sim.VerdictUndetected
)

// StandardFaultPlans builds the standard campaign plan set against the
// given target domains.
func StandardFaultPlans(domains int, seed uint64) []*FaultPlan {
	return fault.CampaignPlans(domains, seed)
}

// RunFaultCampaign executes every plan against the configuration plus an
// unfaulted reference run and classifies each fault as detected, harmless,
// or undetected. Fixed Service schedulers must show zero undetected faults;
// the non-secure baseline will not. Runs are sharded across a
// GOMAXPROCS-wide worker pool; verdicts are byte-identical to a serial
// campaign.
func RunFaultCampaign(cfg Config, plans []*FaultPlan) (*FaultCampaign, error) {
	return sim.RunCampaign(cfg, plans)
}

// RunFaultCampaignContext is RunFaultCampaign with cancellation and an
// explicit worker-pool width (workers <= 0 selects the GOMAXPROCS
// default).
func RunFaultCampaignContext(ctx context.Context, cfg Config, plans []*FaultPlan, workers int) (*FaultCampaign, error) {
	return sim.RunCampaignContext(ctx, cfg, plans, workers)
}
