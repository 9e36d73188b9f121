package sim

import (
	"context"

	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/parallel"
)

// FaultVerdict classifies what one fault plan did to one scheduler.
type FaultVerdict string

const (
	// VerdictDetected: the runtime monitor flagged the fault (timing,
	// schedule, or scheduler-reported violation).
	VerdictDetected FaultVerdict = "detected"
	// VerdictHarmless: the monitor stayed clean AND every non-target
	// domain's command trace is identical to the unfaulted reference run —
	// the fault provably did not move any victim's memory timing.
	VerdictHarmless FaultVerdict = "harmless"
	// VerdictUndetected: the monitor stayed clean but some non-target
	// domain's command trace silently diverged — exactly the timing leak
	// the paper's fixed service policies exist to close.
	VerdictUndetected FaultVerdict = "undetected"
)

// FaultOutcome is the campaign verdict for one plan.
type FaultOutcome struct {
	Plan    string
	Verdict FaultVerdict

	TimingViolations    int
	ScheduleViolations  int
	SchedulerViolations int
	Injected            fault.Counts
	// Violations holds the violations the monitor stored verbatim (the
	// first of those counted above) for reports that print their texts.
	// Serialized outcomes carry only the counts.
	Violations []*fsmerr.Error `json:"-"`

	// ChangedDomains lists non-target domains whose read-delivery trace —
	// the core-observable timing — diverged from the reference run. A
	// non-empty list without a monitor flag is a silent leak.
	ChangedDomains []int
	// ChangedBusDomains lists non-target domains whose command-bus trace
	// diverged. Diagnostic: expected under reordered bank partitioning
	// (slot order follows the global read/write mix) and FR-FCFS even when
	// the delivery trace is intact.
	ChangedBusDomains []int
}

// CampaignResult is a full fault campaign against one scheduler.
type CampaignResult struct {
	Scheduler string
	Cycles    int64 // fixed run length shared by every run
	Outcomes  []FaultOutcome
}

// Undetected counts silent non-interference failures across the campaign.
// Zero for a sound detection story; expectedly positive for the non-secure
// baseline.
func (c *CampaignResult) Undetected() int {
	n := 0
	for _, o := range c.Outcomes {
		if o.Verdict == VerdictUndetected {
			n++
		}
	}
	return n
}

// CampaignCycles is the default fixed run length for campaign runs: long
// enough that every standard plan fires and its consequences unfold, short
// enough to run the whole matrix in seconds.
const CampaignCycles = 24_000

// SimulateChaos is Simulate under a fault plan: the plan's faults are
// injected and the always-on monitor reports what they did in
// Result.Monitor.
func SimulateChaos(cfg Config, plan *fault.Plan) (Result, error) {
	cfg.Fault = plan
	return Simulate(cfg)
}

// RunCampaign executes every plan against the configuration plus one
// unfaulted reference run, all with the same fixed duration, and classifies
// each fault as detected, harmless, or undetected. The caller's
// TargetReads/MaxBusCycles are overridden: verdicts need cycle-aligned
// runs to compare per-domain command traces. Runs are sharded across a
// GOMAXPROCS-wide worker pool; see RunCampaignContext for an explicit
// worker count and cancellation.
func RunCampaign(cfg Config, plans []*fault.Plan) (*CampaignResult, error) {
	return RunCampaignContext(context.Background(), cfg, plans, 0)
}

// RunCampaignContext is RunCampaign over an explicit worker pool
// (workers <= 0 selects the GOMAXPROCS default). Every run — the unfaulted
// reference and each plan — is an independent cell: each simulation is a
// pure function of its Config (the plans carry their own seeds), so the
// campaign's outcomes are byte-identical for every worker count and
// scheduling order. Verdict classification happens after the pool drains,
// in plan order. Cancellation stops in-flight runs at their next watchdog
// check and surfaces a CodeCanceled error.
func RunCampaignContext(ctx context.Context, cfg Config, plans []*fault.Plan, workers int) (*CampaignResult, error) {
	// A caller that explicitly prepared a fixed-duration config
	// (TargetReads == 0 with a cycle bound) keeps its run length; any
	// read-target config is converted to the standard campaign duration.
	if cfg.TargetReads != 0 || cfg.MaxBusCycles == 0 {
		cfg.MaxBusCycles = CampaignCycles
	}
	cfg.TargetReads = 0
	cfg.Fault = nil

	cells := make([]parallel.Cell[Result], 0, len(plans)+1)
	base := cfg
	cells = append(cells, parallel.Cell[Result]{
		Key: "reference",
		Run: func(ctx context.Context) (Result, error) {
			res, err := SimulateContext(ctx, base)
			if err != nil {
				return Result{}, fsmerr.Wrap(fsmerr.CodeFault, "sim.RunCampaign", err)
			}
			return res, nil
		},
	})
	for _, plan := range plans {
		plan := plan
		run := base
		run.Fault = plan
		cells = append(cells, parallel.Cell[Result]{
			Key: "plan:" + plan.Name,
			Run: func(ctx context.Context) (Result, error) {
				res, err := SimulateContext(ctx, run)
				if err != nil {
					return Result{}, fsmerr.Wrap(fsmerr.CodeFault, "sim.RunCampaign("+plan.Name+")", err)
				}
				return res, nil
			},
		})
	}
	results, err := parallel.Map(ctx, workers, cells)
	if err != nil {
		return nil, err
	}

	ref := results[0]
	if ref.Monitor.Detected() {
		return nil, fsmerr.New(fsmerr.CodeFault, "sim.RunCampaign",
			"reference run of %s is not clean: %d timing, %d schedule, %d scheduler violations",
			cfg.Scheduler, ref.Monitor.TimingViolations, ref.Monitor.ScheduleViolations,
			ref.Monitor.SchedulerViolations)
	}

	out := &CampaignResult{Scheduler: cfg.Scheduler.String(), Cycles: cfg.MaxBusCycles}
	for i, plan := range plans {
		res := results[i+1]
		rep := res.Monitor
		o := FaultOutcome{
			Plan:                plan.Name,
			TimingViolations:    rep.TimingViolations,
			ScheduleViolations:  rep.ScheduleViolations,
			SchedulerViolations: rep.SchedulerViolations,
			Injected:            rep.Injected,
			Violations:          rep.Violations,
		}
		// Exclude intentionally perturbed domains from the leak verdict:
		// load-fault targets and the direct victims of command faults. Their
		// own timing legitimately changes; the non-interference question is
		// whether anyone *else*'s does.
		targets := plan.TargetDomains()
		for _, d := range rep.FaultedDomains {
			targets[d] = true
		}
		for d := range rep.DomainTraces {
			if targets[d] {
				continue
			}
			if rep.DomainTraces[d] != ref.Monitor.DomainTraces[d] {
				o.ChangedDomains = append(o.ChangedDomains, d)
			}
			if rep.DomainBusTraces[d] != ref.Monitor.DomainBusTraces[d] {
				o.ChangedBusDomains = append(o.ChangedBusDomains, d)
			}
		}
		switch {
		case rep.Detected():
			o.Verdict = VerdictDetected
		case len(o.ChangedDomains) == 0:
			o.Verdict = VerdictHarmless
		default:
			o.Verdict = VerdictUndetected
		}
		out.Outcomes = append(out.Outcomes, o)
	}
	return out, nil
}
