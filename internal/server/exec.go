package server

import (
	"context"
	"fmt"

	"fsmem/internal/audit"
	"fsmem/internal/experiments"
	"fsmem/internal/fsmerr"
	"fsmem/internal/leakage"
	"fsmem/internal/parallel"
	"fsmem/internal/sim"
)

// execute runs one job body on the parallel engine (one cell: panic
// isolation and ordered error semantics for free; grid-shaped jobs
// shard further inside the cell through the same engine). It is also
// where the durability contract is upheld: the transition to running is
// journaled first, a finished result is persisted to the store before
// the job is journaled done (so "done" in the journal implies the
// result is on disk), and a job whose execution panics accumulates a
// crash counter that quarantines it at the manager's threshold instead
// of letting one poison config wedge the queue.
func (m *Manager) execute(j *Job) {
	// Belt and braces on top of the pool's cell isolation: a panic in
	// the journaling or bookkeeping below must never kill the worker
	// goroutine — that would silently shrink the executor pool.
	defer func() {
		if r := recover(); r != nil {
			err := fsmerr.New(fsmerr.CodePanic, "server.execute", "executor panic: %v", r)
			m.failed.Add(1)
			m.jobs.finish(j, StateFailed, nil, err)
		}
	}()

	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	j.state = StateRunning
	attempts := j.attempts
	j.mu.Unlock()
	defer cancel()

	m.journalState(j.ID, StateRunning, attempts)
	m.executed.Add(1)
	m.inFlight.Add(1)
	defer m.inFlight.Add(-1)
	j.events.publish(JobEvent{Phase: string(StateRunning), State: StateRunning})

	body := m.run
	if m.testRun != nil {
		body = m.testRun
	}
	results, err := parallel.Map(ctx, 1, []parallel.Cell[*cacheEntry]{{
		Key: string(j.Req.Kind) + "/" + j.ID,
		Run: func(ctx context.Context) (*cacheEntry, error) { return body(ctx, j) },
	}})
	entry := results[0]
	switch {
	case err == nil && entry != nil:
		if m.store != nil {
			if perr := m.store.Put(entry.key, entry.result); perr != nil {
				m.storeErrors.Add(1)
			}
		}
		m.jobs.cache.Put(entry.key, entry)
		m.completed.Add(1)
		m.jobs.finish(j, StateDone, entry, nil)
		m.journalState(j.ID, StateDone, attempts)
	case fsmerr.CodeOf(err) == fsmerr.CodeCanceled:
		m.canceled.Add(1)
		m.jobs.finish(j, StateCanceled, nil, err)
		m.journalState(j.ID, StateCanceled, attempts)
	case fsmerr.CodeOf(err) == fsmerr.CodePanic:
		attempts = m.bumpAttempts(j.ID)
		j.mu.Lock()
		j.attempts = attempts
		j.mu.Unlock()
		if attempts >= m.quarantineAfter {
			m.quarantined.Add(1)
			m.jobs.finish(j, StateQuarantined, nil, quarantineErr(attempts))
			m.journalState(j.ID, StateQuarantined, attempts)
		} else {
			m.failed.Add(1)
			m.jobs.finish(j, StateFailed, nil, err)
			m.journalState(j.ID, StateFailed, attempts)
		}
	default:
		if err == nil {
			err = fsmerr.New(fsmerr.CodeExperiment, "server.execute", "job produced no result")
		}
		m.failed.Add(1)
		m.jobs.finish(j, StateFailed, nil, err)
		m.journalState(j.ID, StateFailed, attempts)
	}
}

// bumpAttempts increments a job's executor-crash counter.
func (m *Manager) bumpAttempts(id string) int {
	m.jobs.mu.Lock()
	defer m.jobs.mu.Unlock()
	m.attempts[id]++
	return m.attempts[id]
}

// run computes one job's result document. It runs inside a parallel
// cell, so a panic anywhere below surfaces as a structured CodePanic
// error and a canceled context as CodeCanceled.
func (m *Manager) run(ctx context.Context, j *Job) (*cacheEntry, error) {
	switch j.Req.Kind {
	case KindSimulate:
		return m.runSimulate(ctx, j)
	case KindFigures:
		return m.runFigures(ctx, j)
	case KindLeakage:
		return m.runLeakage(ctx, j)
	case KindChaos:
		return m.runChaos(ctx, j)
	case KindAudit:
		return m.runAudit(ctx, j)
	default:
		return nil, fsmerr.New(fsmerr.CodeConfig, "server.run", "unknown job kind %q", j.Req.Kind)
	}
}

func (m *Manager) runSimulate(ctx context.Context, j *Job) (*cacheEntry, error) {
	cfg, err := j.Req.resolveSimulate()
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "server.simulate", err)
	}
	j.progressTotal.Store(1)
	res, err := sim.SimulateContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	j.progressDone.Store(1)
	j.events.publish(JobEvent{Phase: "progress", Cell: experiments.MemoKey(cfg), Done: 1, Total: 1})
	b, err := marshalResult(Summarize(cfg, res))
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.simulate", err)
	}
	return &cacheEntry{key: j.Key, result: b, trace: res.Trace}, nil
}

func (m *Manager) runFigures(ctx context.Context, j *Job) (*cacheEntry, error) {
	req := *j.Req.Figures
	s, figs, err := req.resolve()
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "server.figures", err)
	}
	s.Workers = req.Workers
	if s.Workers <= 0 || s.Workers > m.gridShards {
		s.Workers = m.gridShards
	}
	s.OnCell = func(key string) {
		// Per-cell progress from the pool workers; the grid size is not
		// known upfront, so Total stays 0.
		done := int(j.progressDone.Add(1))
		j.events.publish(JobEvent{Phase: "progress", Cell: key, Done: done})
	}
	r := experiments.NewRunner(s)
	r.Ctx = ctx

	var out FiguresResult
	for _, f := range figs {
		t, err := f.Run(r)
		switch {
		case fsmerr.CodeOf(err) == fsmerr.CodeCanceled:
			return nil, err
		case err != nil:
			out.Errors = append(out.Errors, fmt.Sprintf("figure %s: %v", f.ID, err))
		default:
			out.Tables = append(out.Tables, t)
		}
	}
	b, err := marshalResult(out)
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.figures", err)
	}
	return &cacheEntry{key: j.Key, result: b}, nil
}

func (m *Manager) runLeakage(ctx context.Context, j *Job) (*cacheEntry, error) {
	req := *j.Req.Leakage
	p, err := req.resolve()
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "server.leakage", err)
	}
	total := 2 * len(p.Schedulers) // a quiet and a loud profile per scheduler
	j.progressTotal.Store(int64(total))
	p.Workers = m.gridShards
	p.OnProfile = func(k sim.SchedulerKind, coRunner string) {
		done := int(j.progressDone.Add(1))
		j.events.publish(JobEvent{Phase: "progress", Cell: fmt.Sprintf("%v/%s", k, coRunner), Done: done, Total: total})
	}
	cmp, err := leakage.Compare(ctx, p)
	if err != nil {
		return nil, err
	}
	out := LeakageResult{Attacker: p.Attacker.Name}
	for _, c := range cmp {
		div, err := leakage.Divergence(c.Quiet, c.Loud)
		if err != nil {
			return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.leakage", err)
		}
		out.Rows = append(out.Rows, LeakageRow{
			Scheduler:             c.Scheduler.String(),
			Identical:             leakage.Identical(c.Quiet, c.Loud),
			MaxDivergence:         div,
			MutualInformationBits: c.MutualInformationBits,
		})
	}
	b, err := marshalResult(out)
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.leakage", err)
	}
	return &cacheEntry{key: j.Key, result: b}, nil
}

func (m *Manager) runAudit(ctx context.Context, j *Job) (*cacheEntry, error) {
	req := *j.Req.Audit
	k, o, err := req.resolve()
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "server.audit", err)
	}
	o.Workers = m.gridShards
	o.Metrics = &m.auditMetrics
	o.Progress = func(stage string, done, total int) {
		// Campaign totals grow per stage; report the stage-local count and
		// leave the job total open like the figure grid does.
		j.progressDone.Store(int64(done))
		j.events.publish(JobEvent{Phase: "progress", Cell: "audit/" + stage, Done: done})
	}
	cert, err := audit.Run(ctx, k, o)
	if err != nil {
		return nil, err
	}
	// audit.MarshalCertificate and marshalResult produce the same bytes;
	// going through the shared helper keeps daemon-served certificates
	// byte-identical to direct audit.Run output by construction.
	b, err := audit.MarshalCertificate(cert)
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.audit", err)
	}
	return &cacheEntry{key: j.Key, result: b}, nil
}

func (m *Manager) runChaos(ctx context.Context, j *Job) (*cacheEntry, error) {
	req := *j.Req.Chaos
	cfg, plans, err := req.resolve()
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeConfig, "server.chaos", err)
	}
	j.progressTotal.Store(int64(len(plans)) + 1) // +1 for the reference run
	res, err := sim.RunCampaignContext(ctx, cfg, plans, m.gridShards)
	if err != nil {
		return nil, err
	}
	j.progressDone.Store(int64(len(plans)) + 1)
	out := ChaosResult{
		Scheduler:  res.Scheduler,
		Cycles:     res.Cycles,
		Undetected: res.Undetected(),
		Outcomes:   res.Outcomes,
	}
	b, err := marshalResult(out)
	if err != nil {
		return nil, fsmerr.Wrap(fsmerr.CodeExperiment, "server.chaos", err)
	}
	return &cacheEntry{key: j.Key, result: b}, nil
}
