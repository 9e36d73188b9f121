// Package server is the simulation-as-a-service layer: an HTTP/JSON
// daemon (cmd/fsmemd) that accepts simulation, figure-grid,
// leakage-profile, fault-campaign, and leakage-audit jobs, executes
// them on the internal/parallel worker pool, and serves results from a
// persistent content-addressed LRU cache.
//
// Design (DESIGN.md §10):
//
//   - Job identity is content addressing. A job's ID is a hash of its
//     canonical payload — for simulations, experiments.MemoKey, the
//     experiment runner's config key with the request's own TP turn —
//     so resubmitting an identical request joins the existing job
//     (singleflight) or answers straight from cache. Identical
//     concurrent submissions simulate exactly once.
//   - Everything a simulation job returns is a pure function of its
//     config, so cached result documents are byte-identical to what a
//     direct fsmem.Simulate caller would compute (pinned by tests).
//   - Backpressure is explicit: a bounded two-priority queue (429
//     queue_full when saturated), a token-bucket rate limit on
//     submissions (429 rate_limited), and graceful drain on SIGTERM
//     (503 draining for new work while in-flight jobs finish).
//   - Progress streams over SSE (GET /v1/jobs/{id}/events), fed from
//     the experiment runner's per-cell callbacks; observed jobs
//     re-export their command trace as JSONL or Chrome trace_event.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"fsmem/internal/addr"
	"fsmem/internal/audit"
	"fsmem/internal/config"
	"fsmem/internal/energy"
	"fsmem/internal/experiments"
	"fsmem/internal/fault"
	"fsmem/internal/leakage"
	"fsmem/internal/obs"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// JobKind selects what a job computes.
type JobKind string

// The job kinds.
const (
	// KindSimulate runs one simulation (the payload is the same JSON
	// shape cmd/memsim -config accepts).
	KindSimulate JobKind = "simulate"
	// KindFigures regenerates evaluation figures on the experiment
	// runner's memoized grid.
	KindFigures JobKind = "figures"
	// KindLeakage collects Figure 4 execution profiles and the derived
	// divergence / mutual-information statistics.
	KindLeakage JobKind = "leakage"
	// KindChaos runs the standard fault-injection campaign.
	KindChaos JobKind = "chaos"
	// KindAudit runs the adversarial leakage audit and returns the
	// scheduler's LeakageCertificate.
	KindAudit JobKind = "audit"
)

// Job priorities.
const (
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// JobRequest is the POST /v1/jobs payload. Exactly one of the kind
// payloads must be set, matching Kind.
type JobRequest struct {
	Kind JobKind `json:"kind"`
	// Priority is "normal" (default) or "high"; high-priority jobs are
	// dispatched first.
	Priority string `json:"priority,omitempty"`
	// Observe attaches the command/event tracer to a simulate job so
	// GET /v1/jobs/{id}/trace can re-export it. Observation never
	// changes the simulated result, but observed jobs cache separately
	// (their entry carries the trace).
	Observe bool `json:"observe,omitempty"`

	Simulate *config.Experiment `json:"simulate,omitempty"`
	Figures  *FiguresRequest    `json:"figures,omitempty"`
	Leakage  *LeakageRequest    `json:"leakage,omitempty"`
	Chaos    *ChaosRequest      `json:"chaos,omitempty"`
	Audit    *AuditRequest      `json:"audit,omitempty"`
}

// FiguresRequest asks for evaluation figures at a given scale.
type FiguresRequest struct {
	// Figures lists figure IDs ("3".."10", plus "s6" for the Section 6
	// multi-channel target system); empty means every figure.
	Figures []string `json:"figures,omitempty"`
	Cores   int      `json:"cores,omitempty"`   // default 8
	Reads   int64    `json:"reads,omitempty"`   // default 20000
	Seed    uint64   `json:"seed,omitempty"`    // default 42
	Workers int      `json:"workers,omitempty"` // grid shard width (0 = server default)
}

// LeakageRequest asks for an execution-profile leakage measurement.
type LeakageRequest struct {
	// Scheduler is a config scheduler name; empty runs the Figure 4
	// pair (baseline and fs_rp).
	Scheduler string `json:"scheduler,omitempty"`
	Attacker  string `json:"attacker,omitempty"` // default mcf
	Cores     int    `json:"cores,omitempty"`    // default 8
	Samples   int64  `json:"samples,omitempty"`  // x10K instructions, default 40
	Seed      uint64 `json:"seed,omitempty"`     // default 42
	Channels  int    `json:"channels,omitempty"` // memory channels, default 1
	Routing   string `json:"routing,omitempty"`  // colored (default) or interleaved
}

// ChaosRequest asks for a fault-injection campaign.
type ChaosRequest struct {
	Scheduler string `json:"scheduler"`          // config scheduler name
	Workload  string `json:"workload,omitempty"` // default milc
	Cores     int    `json:"cores,omitempty"`    // default 4
	Seed      uint64 `json:"seed,omitempty"`     // fault-plan seed, default 7
	Cycles    int64  `json:"cycles,omitempty"`   // fixed run length (0 = standard)
}

// AuditRequest asks for an adversarial leakage audit of one scheduler.
// Zero values take the audit engine's defaults; every field is part of
// the content key, so two requests differing only in spelled-out
// defaults still address the same job.
type AuditRequest struct {
	Scheduler    string `json:"scheduler"`              // config scheduler name, required
	Cores        int    `json:"cores,omitempty"`        // security domains, default 4
	Bits         int    `json:"bits,omitempty"`         // message length, default 16
	Window       int64  `json:"window,omitempty"`       // base window in bus cycles, default 10000
	Seeds        int    `json:"seeds,omitempty"`        // certification seeds, default 3
	Permutations int    `json:"permutations,omitempty"` // permutation-test rounds, default 199
	Rounds       int    `json:"rounds,omitempty"`       // adaptive search rounds, default 2
	Seed         uint64 `json:"seed,omitempty"`         // campaign seed, default 42
	Fault        string `json:"fault,omitempty"`        // fault plan name (anti-vacuity), default none
	FaultSeed    uint64 `json:"fault_seed,omitempty"`   // fault plan seed, default 7
	Channels     int    `json:"channels,omitempty"`     // memory channels, default 1
	Routing      string `json:"routing,omitempty"`      // colored (default) or interleaved
}

// JobState is a job's lifecycle phase.
type JobState string

// The job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
	// StateQuarantined marks a poison job: it panicked the executor (or
	// was running at a daemon crash) QuarantineAfter times, so it is
	// permanently parked instead of re-executed. Resubmissions return
	// the quarantined record without touching the queue.
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// Progress counts completed work units (simulation grid cells for
// figure jobs, campaign runs for chaos jobs, 1 for plain simulations).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total,omitempty"` // 0 when the total is not known upfront
}

// JobStatus is the status document for one job.
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	State    JobState `json:"state"`
	Priority string   `json:"priority"`
	// CacheHit marks a job answered from the result cache (in-memory or
	// disk store) without re-simulating.
	CacheHit bool     `json:"cache_hit,omitempty"`
	Progress Progress `json:"progress"`
	// Worker names the daemon (or, through a coordinator, the fleet
	// member) the job ran on: a single daemon stamps its configured
	// WorkerName, a coordinator the routed worker's URL. Empty on
	// unnamed single-node daemons. cmd/fsload aggregates it into its
	// per-worker breakdown.
	Worker string `json:"worker,omitempty"`
	// Attempts counts executor crashes attributed to this job; at the
	// server's quarantine threshold the job moves to "quarantined".
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// ErrorCode is the fsmerr code of a failed job, for programmatic
	// handling ("canceled", "config", ...).
	ErrorCode string `json:"error_code,omitempty"`
}

// JobEvent is one SSE progress event.
type JobEvent struct {
	Seq   int      `json:"seq"`
	Phase string   `json:"phase"` // queued, running, progress, done, failed, canceled
	Cell  string   `json:"cell,omitempty"`
	Done  int      `json:"done,omitempty"`
	Total int      `json:"total,omitempty"`
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// DomainSummary is one security domain's row in a simulation result.
type DomainSummary struct {
	Domain         int     `json:"domain"`
	IPC            float64 `json:"ipc"`
	Reads          int64   `json:"reads"`
	Writes         int64   `json:"writes"`
	Dummies        int64   `json:"dummies"`
	Prefetches     int64   `json:"prefetches"`
	RowHits        int64   `json:"row_hits"`
	AvgReadLatency float64 `json:"avg_read_latency"`
}

// LatencyTail is the domain-0 demand-read latency distribution.
type LatencyTail struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// SimulationSummary is the canonical result document of a simulate job:
// the same statistics cmd/memsim prints, as raw values. It is computed
// deterministically from the simulation result alone, so identical
// configs produce byte-identical documents — the content-addressed
// cache and the byte-equality tests rely on this.
type SimulationSummary struct {
	Scheduler       string          `json:"scheduler"`
	Workload        string          `json:"workload"`
	Domains         int             `json:"domains"`
	BusCycles       int64           `json:"bus_cycles"`
	Reads           int64           `json:"reads"`
	Instructions    int64           `json:"instructions"`
	AvgReadLatency  float64         `json:"avg_read_latency"`
	BusUtilization  float64         `json:"bus_utilization"`
	DummyFraction   float64         `json:"dummy_fraction"`
	EnergyMJ        float64         `json:"energy_mj"`
	EnergyPerReadNJ float64         `json:"energy_per_read_nj"`
	Truncated       bool            `json:"truncated,omitempty"`
	TruncateReason  string          `json:"truncate_reason,omitempty"`
	Latency         *LatencyTail    `json:"latency,omitempty"`
	PerDomain       []DomainSummary `json:"per_domain"`
	// Metrics is the end-of-run observability snapshot, present only on
	// observed jobs.
	Metrics obs.Snapshot `json:"metrics,omitempty"`
}

// Summarize reduces a finished simulation to its canonical result
// document. The daemon and the tests share it: a direct fsmem.Simulate
// caller summarizing the same config gets byte-identical JSON.
func Summarize(cfg sim.Config, res sim.Result) SimulationSummary {
	run := res.Run
	model := energy.NewModel(cfg.DRAM, energy.DDR3_4Gb())
	bill := model.ForRun(run, res.FS)
	s := SimulationSummary{
		Scheduler:       run.Scheduler,
		Workload:        run.Workload,
		Domains:         len(run.Domains),
		BusCycles:       run.BusCycles,
		Reads:           run.TotalReads(),
		Instructions:    run.TotalInstructions(),
		AvgReadLatency:  run.AvgReadLatency(),
		BusUtilization:  run.BusUtilization(),
		DummyFraction:   run.DummyFraction(),
		EnergyMJ:        bill.Total * 1e3,
		EnergyPerReadNJ: energy.PerRead(bill, run) * 1e9,
		Truncated:       res.Truncated,
		TruncateReason:  res.TruncateReason,
		Metrics:         res.Metrics,
	}
	if len(run.Latency) > 0 && run.Latency[0] != nil && run.Latency[0].Count() > 0 {
		h := run.Latency[0]
		s.Latency = &LatencyTail{
			P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(),
		}
	}
	for d, dom := range run.Domains {
		s.PerDomain = append(s.PerDomain, DomainSummary{
			Domain: d, IPC: dom.IPC(), Reads: dom.Reads, Writes: dom.Writes,
			Dummies: dom.Dummies, Prefetches: dom.Prefetches, RowHits: dom.RowHits,
			AvgReadLatency: dom.AvgReadLatency(),
		})
	}
	return s
}

// FiguresResult is the result document of a figures job.
type FiguresResult struct {
	Tables []experiments.Table `json:"tables"`
	// Errors lists figures that failed to regenerate (a partial grid
	// still returns every healthy table).
	Errors []string `json:"errors,omitempty"`
}

// LeakageRow is one scheduler's leakage measurement.
type LeakageRow struct {
	Scheduler             string  `json:"scheduler"`
	Identical             bool    `json:"identical"`
	MaxDivergence         float64 `json:"max_divergence"`
	MutualInformationBits float64 `json:"mutual_information_bits"`
}

// LeakageResult is the result document of a leakage job.
type LeakageResult struct {
	Attacker string       `json:"attacker"`
	Rows     []LeakageRow `json:"rows"`
}

// ChaosResult is the result document of a chaos job.
type ChaosResult struct {
	Scheduler  string             `json:"scheduler"`
	Cycles     int64              `json:"cycles"`
	Undetected int                `json:"undetected"`
	Outcomes   []sim.FaultOutcome `json:"outcomes"`
}

// normalize fills request defaults and validates the request through the
// engine that will run it (see the resolve functions below); it returns
// the canonical content key the job's ID and cache entry derive from. A
// request it accepts is one the executor can start.
func (r *JobRequest) normalize() (string, error) {
	switch r.Priority {
	case "":
		r.Priority = PriorityNormal
	case PriorityNormal, PriorityHigh:
	default:
		return "", fmt.Errorf("unknown priority %q (want %q or %q)", r.Priority, PriorityNormal, PriorityHigh)
	}
	if r.Observe && r.Kind != KindSimulate {
		return "", fmt.Errorf("observe is only supported on %q jobs", KindSimulate)
	}
	set := 0
	for _, ok := range []bool{r.Simulate != nil, r.Figures != nil, r.Leakage != nil, r.Chaos != nil, r.Audit != nil} {
		if ok {
			set++
		}
	}
	if set > 1 {
		return "", fmt.Errorf("exactly one job payload may be set, got %d", set)
	}
	switch r.Kind {
	case KindSimulate:
		if r.Simulate == nil {
			return "", fmt.Errorf("%q job needs a simulate payload", r.Kind)
		}
		cfg, err := r.resolveSimulate()
		if err != nil {
			return "", err
		}
		key := "sim|" + experiments.MemoKey(cfg)
		if r.Observe {
			key += "|observe"
		}
		return key, nil
	case KindFigures:
		if r.Figures == nil {
			r.Figures = &FiguresRequest{}
		}
		f := r.Figures
		if _, _, err := f.resolve(); err != nil {
			return "", err
		}
		figs := append([]string(nil), f.Figures...)
		sort.Strings(figs)
		// Workers is an execution hint, not content: it never changes the
		// tables, so it stays out of the key.
		return fmt.Sprintf("figures|%s|cores=%d|reads=%d|seed=%d",
			strings.Join(figs, ","), f.Cores, f.Reads, f.Seed), nil
	case KindLeakage:
		if r.Leakage == nil {
			r.Leakage = &LeakageRequest{}
		}
		l := r.Leakage
		if _, err := l.resolve(); err != nil {
			return "", err
		}
		return fmt.Sprintf("leakage|sched=%s|attacker=%s|cores=%d|samples=%d|seed=%d|channels=%d|routing=%s",
			l.Scheduler, l.Attacker, l.Cores, l.Samples, l.Seed, l.Channels, l.Routing), nil
	case KindChaos:
		c := r.Chaos
		if c == nil {
			return "", fmt.Errorf("%q job needs a chaos payload", r.Kind)
		}
		if _, _, err := c.resolve(); err != nil {
			return "", err
		}
		return fmt.Sprintf("chaos|sched=%s|workload=%s|cores=%d|seed=%d|cycles=%d",
			c.Scheduler, c.Workload, c.Cores, c.Seed, c.Cycles), nil
	case KindAudit:
		a := r.Audit
		if a == nil {
			return "", fmt.Errorf("%q job needs an audit payload", r.Kind)
		}
		if _, _, err := a.resolve(); err != nil {
			return "", err
		}
		return fmt.Sprintf("audit|sched=%s|cores=%d|bits=%d|window=%d|seeds=%d|perms=%d|rounds=%d|seed=%d|fault=%s|faultseed=%d|channels=%d|routing=%s",
			a.Scheduler, a.Cores, a.Bits, a.Window, a.Seeds, a.Permutations, a.Rounds, a.Seed, a.Fault, a.FaultSeed, a.Channels, a.Routing), nil
	default:
		return "", fmt.Errorf("unknown job kind %q (options: %s, %s, %s, %s, %s)",
			r.Kind, KindSimulate, KindFigures, KindLeakage, KindChaos, KindAudit)
	}
}

// Each job kind has one resolve function. It fills the payload's
// content-key defaults in place, validates the payload through the rules
// of the engine that runs it, and returns that engine's input. normalize
// calls it to accept a job, and the executor calls it again on a copy of
// the accepted payload (where the defaults are already filled) to run the
// job, so submission and execution cannot disagree about a request.

// resolveSimulate returns the simulation a simulate job runs.
func (r *JobRequest) resolveSimulate() (sim.Config, error) {
	cfg, err := r.Simulate.ToSimConfig()
	if err != nil {
		return sim.Config{}, err
	}
	if r.Observe {
		cfg.Observe = &obs.Options{}
	}
	return cfg, nil
}

// resolve returns the runner settings and the figures a figures job
// runs: every figure when none is named.
func (f *FiguresRequest) resolve() (experiments.Settings, []experiments.Figure, error) {
	if f.Cores == 0 {
		f.Cores = 8
	}
	if f.Reads == 0 {
		f.Reads = 20_000
	}
	if f.Seed == 0 {
		f.Seed = 42
	}
	ids := f.Figures
	if len(ids) == 0 {
		ids = experiments.Names()
	}
	figs := make([]experiments.Figure, len(ids))
	for i, id := range ids {
		fig, ok := experiments.Lookup(id)
		if !ok {
			return experiments.Settings{}, nil, fmt.Errorf("unknown figure %q (options: %s)", id, strings.Join(experiments.Names(), ", "))
		}
		figs[i] = fig
	}
	return experiments.Settings{Cores: f.Cores, TargetReads: f.Reads, Seed: f.Seed}, figs, nil
}

// resolve returns the Figure 4 comparison a leakage job runs: the named
// scheduler, or the Figure 4 pair (Baseline and FS_RP).
func (l *LeakageRequest) resolve() (leakage.CompareParams, error) {
	if l.Attacker == "" {
		l.Attacker = "mcf"
	}
	if l.Cores == 0 {
		l.Cores = 8
	}
	if l.Samples == 0 {
		l.Samples = 40
	}
	if l.Seed == 0 {
		l.Seed = 42
	}
	if l.Channels == 0 {
		l.Channels = 1
	}
	if l.Routing == "" {
		l.Routing = addr.RouteColored.String()
	}
	p := leakage.CompareParams{
		Domains: l.Cores, Schedulers: []sim.SchedulerKind{sim.Baseline, sim.FSRankPart},
		Samples: l.Samples, Seed: l.Seed, Channels: l.Channels,
	}
	var err error
	if p.Attacker, err = workload.ByName(l.Attacker); err != nil {
		return p, err
	}
	if l.Scheduler != "" {
		k, err := schedulerByName(l.Scheduler)
		if err != nil {
			return p, err
		}
		p.Schedulers = []sim.SchedulerKind{k}
	}
	if p.Routing, err = addr.RoutingByName(l.Routing); err != nil {
		return p, err
	}
	return p, p.Check()
}

// resolve returns the reference configuration and the fault plans of the
// campaign a chaos job runs.
func (c *ChaosRequest) resolve() (sim.Config, []*fault.Plan, error) {
	if c.Workload == "" {
		c.Workload = "milc"
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	k, err := schedulerByName(c.Scheduler)
	if err != nil {
		return sim.Config{}, nil, err
	}
	mix, err := workload.Rate(c.Workload, c.Cores)
	if err != nil {
		return sim.Config{}, nil, err
	}
	cfg := sim.DefaultConfig(mix, k)
	cfg.Seed = 1
	if c.Cycles > 0 {
		cfg.TargetReads = 0
		cfg.MaxBusCycles = c.Cycles
	}
	if err := sim.CheckScheduler(cfg, len(mix.Profiles)); err != nil {
		return sim.Config{}, nil, err
	}
	return cfg, fault.CampaignPlans(c.Cores, c.Seed), nil
}

// resolve returns the scheduler and the campaign options an audit job
// runs. The campaign defaults and rules are audit.Options.Check's; the
// request adds its own defaults for the seeds and the fabric.
func (a *AuditRequest) resolve() (sim.SchedulerKind, audit.Options, error) {
	if a.Seed == 0 {
		a.Seed = 42
	}
	if a.Fault != "" && a.FaultSeed == 0 {
		a.FaultSeed = 7
	}
	if a.Channels == 0 {
		a.Channels = 1
	}
	if a.Routing == "" {
		a.Routing = addr.RouteColored.String()
	}
	k, err := schedulerByName(a.Scheduler)
	if err != nil {
		return 0, audit.Options{}, err
	}
	routing, err := addr.RoutingByName(a.Routing)
	if err != nil {
		return 0, audit.Options{}, err
	}
	o, err := audit.Options{
		Domains: a.Cores, Bits: a.Bits, WindowBusCycles: a.Window, Seed: a.Seed, Seeds: a.Seeds,
		Permutations: a.Permutations, Rounds: a.Rounds, FaultPlan: a.Fault, FaultSeed: a.FaultSeed,
		Channels: a.Channels, Routing: routing,
	}.Check(k)
	if err != nil {
		return 0, audit.Options{}, err
	}
	// Bake the engine's defaults into the request, and so into the key:
	// requests differing only in spelled-out defaults address one job.
	a.Cores, a.Bits, a.Window, a.Seeds = o.Domains, o.Bits, o.WindowBusCycles, o.Seeds
	a.Permutations, a.Rounds, a.FaultSeed = o.Permutations, o.Rounds, o.FaultSeed
	return k, o, nil
}

// Canonicalize validates req, fills its defaults in place, and returns
// the job's content-addressed ID and canonical content key — the same
// identity Submit assigns. The cluster coordinator routes on it, so
// routing and execution can never disagree about what a job is, and a
// resubmission on another worker is idempotent by construction.
func Canonicalize(req *JobRequest) (id, key string, err error) {
	key, err = req.normalize()
	if err != nil {
		return "", "", err
	}
	return jobID(key), key, nil
}

// ClusterWorker is one fleet member's row in the coordinator's
// /v1/cluster document.
type ClusterWorker struct {
	Name           string `json:"name"`
	Healthy        bool   `json:"healthy"`
	InFlight       int64  `json:"in_flight"`
	Routed         int64  `json:"routed"`
	Completed      int64  `json:"completed"`
	Failed         int64  `json:"failed"`
	Stolen         int64  `json:"stolen"`
	HeartbeatFails int64  `json:"heartbeat_fails"`
}

// ClusterStatus is the coordinator's GET /v1/cluster fleet document.
type ClusterStatus struct {
	Workers          []ClusterWorker `json:"workers"`
	Submitted        int64           `json:"submitted"`
	Completed        int64           `json:"completed"`
	Failed           int64           `json:"failed"`
	CacheHits        int64           `json:"cache_hits"`
	Live             int             `json:"live"`
	Retries          int64           `json:"retries"`
	Steals           int64           `json:"steals"`
	VerifySampled    int64           `json:"verify_sampled"`
	VerifyOK         int64           `json:"verify_ok"`
	VerifyMismatches int64           `json:"verify_mismatches"`
}

// RegisterRequest is the POST /v1/cluster/register payload a worker
// sends (via fsmemd -join) to enter a coordinator's fleet.
type RegisterRequest struct {
	// Addr is the worker's advertised base URL, e.g.
	// "http://10.0.0.7:8377".
	Addr string `json:"addr"`
}

// jobID derives the deterministic job ID from the canonical content
// key: the same request always maps to the same job, which is what
// makes concurrent identical submissions collapse into one execution.
func jobID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("j%016x", h.Sum64())
}

// schedulerByName resolves a config scheduler name.
func schedulerByName(name string) (sim.SchedulerKind, error) {
	k, ok := config.SchedulerByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown scheduler %q (options: %s)",
			name, strings.Join(config.SchedulerNames(), ", "))
	}
	return k, nil
}

// marshalResult encodes a result document with a stable layout.
func marshalResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
