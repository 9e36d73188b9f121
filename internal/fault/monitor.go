package fault

import (
	"slices"

	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
)

// maxStoredViolations caps the errors a Report keeps verbatim; the counts
// keep accumulating past the cap so a violation storm cannot eat memory.
const maxStoredViolations = 32

// Report is the monitor's verdict on one run. A clean run has Ok() true;
// any recorded violation means the observed command stream was not the
// statically proven one (or broke the derated hardware's constraints).
type Report struct {
	Commands int64 // commands observed on the bus

	// TimingViolations counts shadow-checker rejections: commands that the
	// (possibly derated) independent timing model refused.
	TimingViolations int
	// ScheduleViolations counts divergences between the scheduler's planned
	// stream and the bus: dropped, delayed, duplicated, or alien commands.
	// Only tracked for schedulers with a static schedule (Fixed Service).
	ScheduleViolations int
	// SchedulerViolations counts violations reported by the scheduler
	// itself (a planned command the live channel rejected).
	SchedulerViolations int

	// Violations holds the first maxStoredViolations structured errors.
	Violations []*fsmerr.Error

	// DomainTraces is a per-domain FNV-1a hash over the cycles at which
	// the domain's demand reads were delivered — the observable a core can
	// actually time, and the one the paper's security argument fixes
	// (reordered bank partitioning releases reads en masse precisely so
	// this trace is independent of other domains' load). The fault
	// campaign compares it across runs to prove non-interference.
	DomainTraces []uint64
	// DomainBusTraces hashes each domain's (cycle, kind) command-bus
	// footprint. Diagnostic only: invariant for the slot-grid FS variants,
	// but legitimately load-dependent under reordered bank partitioning
	// (slot order follows the global read/write mix) and under FR-FCFS.
	// Addresses are excluded: FS hides *which* line is touched behind
	// dummy traffic; only when/what-kind matters.
	DomainBusTraces []uint64
	// OtherTrace hashes unattributed bus commands (refresh, injected
	// extras).
	OtherTrace uint64

	// Injected mirrors the injector's tally (zero for unfaulted runs).
	Injected Counts
	// FaultedDomains lists domains whose own command a fired fault directly
	// perturbed (sorted). The campaign excludes them — like load-fault
	// targets — from the cross-domain leak verdict: a dropped command
	// corrupting its own domain is an integrity fault, not interference.
	FaultedDomains []int
}

// ObsMetrics contributes the verification verdict counters to an
// observability snapshot (structurally satisfies obs.MetricSource).
func (r *Report) ObsMetrics(emit func(name string, value float64)) {
	emit("commands", float64(r.Commands))
	emit("timing_violations", float64(r.TimingViolations))
	emit("schedule_violations", float64(r.ScheduleViolations))
	emit("scheduler_violations", float64(r.SchedulerViolations))
	emit("injected_drops", float64(r.Injected.Drops))
	emit("injected_delays", float64(r.Injected.Delays))
	emit("injected_duplicates", float64(r.Injected.Duplicates))
	emit("injected_extras", float64(r.Injected.Extras))
	emit("injected_replay_rejects", float64(r.Injected.ReplayRejects))
}

// Ok reports whether the monitor saw a perfectly clean run.
func (r *Report) Ok() bool {
	return r.TimingViolations == 0 && r.ScheduleViolations == 0 && r.SchedulerViolations == 0
}

// Detected reports whether the monitor flagged anything.
func (r *Report) Detected() bool { return !r.Ok() }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldTrace(h uint64, cycle int64, kind dram.Kind) uint64 {
	x := uint64(cycle)<<8 | uint64(kind)
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Monitor is the always-on runtime verifier. It shadows the live channel
// with an independent dram.Checker (optionally derated to the "true"
// hardware timings) and, for Fixed Service schedulers, cross-checks every
// bus command against the stream the scheduler planned.
type Monitor struct {
	checker *dram.Checker

	domains       int
	scheduleCheck bool
	// intended holds planned commands not yet seen on the bus (0-1 in a
	// healthy run). It pops by deleting in place, keeping its capacity, so
	// Intended does not allocate per command.
	intended []TimedCommand

	rep Report
}

// NewMonitor builds a monitor for one channel at nominal parameters.
func NewMonitor(p dram.Params, domains int) *Monitor {
	m := &Monitor{checker: dram.NewChecker(p), domains: domains}
	m.rep.DomainTraces = make([]uint64, domains)
	m.rep.DomainBusTraces = make([]uint64, domains)
	for d := 0; d < domains; d++ {
		m.rep.DomainTraces[d] = fnvOffset
		m.rep.DomainBusTraces[d] = fnvOffset
	}
	m.rep.OtherTrace = fnvOffset
	return m
}

// ApplyDerates installs the plan's "true hardware" timing margins on the
// shadow checker.
func (m *Monitor) ApplyDerates(ds []RankDerate) {
	for _, d := range ds {
		m.checker.SetDerate(d.Rank, d.Derate)
	}
}

// EnableScheduleCheck turns on planned-vs-observed stream matching. Only
// meaningful for schedulers whose command stream is statically determined
// (the Fixed Service family); FR-FCFS-style schedulers have no schedule to
// check against.
func (m *Monitor) EnableScheduleCheck() { m.scheduleCheck = true }

func (m *Monitor) violation(e *fsmerr.Error) {
	if len(m.rep.Violations) < maxStoredViolations {
		m.rep.Violations = append(m.rep.Violations, e)
	}
}

// Intended records a command the scheduler legally planned for this cycle,
// before any injection can perturb it.
func (m *Monitor) Intended(cmd dram.Command, cycle int64) {
	if !m.scheduleCheck {
		return
	}
	m.intended = append(m.intended, TimedCommand{Cycle: cycle, Cmd: cmd})
}

// Applied observes a command that actually reached the bus. It feeds the
// shadow checker, folds the per-domain trace, and (for FS) matches the
// command against the planned stream.
func (m *Monitor) Applied(cmd dram.Command, cycle int64, suppressed bool) {
	m.rep.Commands++
	if err := m.checker.Feed(cmd, cycle); err != nil {
		m.rep.TimingViolations++
		m.violation(fsmerr.At(fsmerr.CodeTiming, "fault.monitor", cycle, cmd, err))
	}
	if cmd.Domain >= 0 && cmd.Domain < m.domains {
		m.rep.DomainBusTraces[cmd.Domain] = foldTrace(m.rep.DomainBusTraces[cmd.Domain], cycle, cmd.Kind)
	} else {
		m.rep.OtherTrace = foldTrace(m.rep.OtherTrace, cycle, cmd.Kind)
	}

	if !m.scheduleCheck {
		return
	}
	// Planned commands whose cycle has passed without reaching the bus were
	// dropped (or delayed past this point): flag them, then match.
	for len(m.intended) > 0 && m.intended[0].Cycle < cycle && m.intended[0].Cmd != cmd {
		p := m.intended[0]
		m.intended = slices.Delete(m.intended, 0, 1)
		m.rep.ScheduleViolations++
		m.violation(fsmerr.At(fsmerr.CodeSchedule, "fault.monitor", p.Cycle, p.Cmd,
			fsmerr.New(fsmerr.CodeSchedule, "fault.monitor", "planned command never reached the bus")))
	}
	if len(m.intended) > 0 && m.intended[0].Cmd == cmd {
		p := m.intended[0]
		m.intended = slices.Delete(m.intended, 0, 1)
		if p.Cycle != cycle {
			m.rep.ScheduleViolations++
			m.violation(fsmerr.At(fsmerr.CodeSchedule, "fault.monitor", cycle, cmd,
				fsmerr.New(fsmerr.CodeSchedule, "fault.monitor",
					"command issued off schedule (planned cycle %d)", p.Cycle)))
		}
		return
	}
	m.rep.ScheduleViolations++
	m.violation(fsmerr.At(fsmerr.CodeSchedule, "fault.monitor", cycle, cmd,
		fsmerr.New(fsmerr.CodeSchedule, "fault.monitor", "unplanned command on the bus")))
}

// ReadCompleted observes the delivery of one demand read to its core —
// the core-visible timing the non-interference verdict is built on.
func (m *Monitor) ReadCompleted(domain int, cycle int64) {
	if domain >= 0 && domain < m.domains {
		m.rep.DomainTraces[domain] = foldTrace(m.rep.DomainTraces[domain], cycle, 0)
	}
}

// SchedulerViolation records a violation the scheduler itself reported
// (a planned command the live channel refused).
func (m *Monitor) SchedulerViolation(err error) {
	m.rep.SchedulerViolations++
	if e, ok := err.(*fsmerr.Error); ok {
		m.violation(e)
		return
	}
	m.violation(&fsmerr.Error{Code: fsmerr.CodeTiming, Op: "scheduler", Cycle: fsmerr.NoCycle, Err: err})
}

// Finalize flushes planned-but-never-issued commands, folds in the
// injector's tally, and returns the report. The monitor must not be fed
// after Finalize.
func (m *Monitor) Finalize(in *Injector) *Report {
	for _, p := range m.intended {
		m.rep.ScheduleViolations++
		m.violation(fsmerr.At(fsmerr.CodeSchedule, "fault.monitor", p.Cycle, p.Cmd,
			fsmerr.New(fsmerr.CodeSchedule, "fault.monitor", "planned command never reached the bus")))
	}
	m.intended = nil
	if in != nil {
		m.rep.Injected = in.Stats
		m.rep.FaultedDomains = in.FaultedDomains()
	}
	return &m.rep
}
