package server

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/audit"
	"fsmem/internal/fsmerr"
	"fsmem/internal/parallel"
)

// Manager is the daemon's role over the job table: the bounded
// two-priority queue and the executor pool. Execution itself funnels
// every job body through internal/parallel, which supplies panic
// isolation and cancellation semantics identical to the batch CLIs'.
//
// With a data directory configured, the manager is also the durability
// layer: accepted jobs are journaled before they become runnable,
// finished results are persisted to the content-addressed Store before
// the job is journaled done, and a fresh manager replays the journal —
// re-serving done work from the store, re-enqueueing interrupted work
// (sound, because re-execution is byte-identical), and quarantining
// jobs that keep crashing the executor.
type Manager struct {
	workers         int
	gridShards      int
	queueDepth      int // submission backpressure threshold
	quarantineAfter int
	jobs            *Table

	journal *journal
	store   *Store

	baseCtx    context.Context
	baseCancel context.CancelFunc

	high, normal chan *Job
	wg           sync.WaitGroup
	closeOnce    sync.Once

	attempts map[string]int // executor-crash counters by job ID, under jobs.mu

	// testRun, when set, replaces Manager.run inside the execution cell
	// (the quarantine tests use it to build deterministic poison jobs).
	testRun func(context.Context, *Job) (*cacheEntry, error)

	// counters for /metrics
	executed, completed, failed, canceled atomic.Int64
	inFlight, quarantined                 atomic.Int64
	recoveredRequeued, recoveredServed    atomic.Int64
	recoveredQuarantined, journalSkipped  atomic.Int64
	storeErrors                           atomic.Int64
	// auditMetrics accumulates leakage-audit campaign counters across
	// every audit job this manager executes, exposed under
	// fsmemd.audit.* on /metrics.
	auditMetrics audit.Metrics
}

// maxFinished bounds how many terminal job records stay addressable;
// beyond it the least recently used are evicted (their results usually
// remain in the LRU cache, so a resubmission is still a cache hit).
const maxFinished = 1024

// defaultQuarantineAfter is how many executor crashes park a job when
// Options.QuarantineAfter is unset.
const defaultQuarantineAfter = 3

// newManager builds the manager, recovers journaled state when a data
// directory is configured, and starts the executor pool.
func newManager(o Options) (*Manager, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	queueDepth := o.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 64
	}
	gridShards := o.GridShards
	if gridShards <= 0 {
		gridShards = workers
	}
	quarantineAfter := o.QuarantineAfter
	if quarantineAfter <= 0 {
		quarantineAfter = defaultQuarantineAfter
	}
	cacheEntries := o.CacheEntries
	if cacheEntries <= 0 {
		cacheEntries = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		workers:         workers,
		gridShards:      gridShards,
		queueDepth:      queueDepth,
		quarantineAfter: quarantineAfter,
		jobs:            NewTable(o.WorkerName, maxFinished, cacheEntries),
		baseCtx:         ctx,
		baseCancel:      cancel,
		attempts:        map[string]int{},
	}

	var requeue []*Job
	if o.DataDir != "" {
		store, err := OpenStore(filepath.Join(o.DataDir, "store"))
		if err != nil {
			cancel()
			return nil, err
		}
		m.store = store
		requeue, err = m.recover(o.DataDir)
		if err != nil {
			cancel()
			return nil, err
		}
		jl, err := openJournal(o.DataDir)
		if err != nil {
			cancel()
			return nil, err
		}
		m.journal = jl
	}

	// The channels get headroom for recovered jobs so a restart never
	// rejects work the previous process had already accepted; Submit
	// enforces the policy depth itself.
	nHigh := 0
	for _, j := range requeue {
		if j.Req.Priority == PriorityHigh {
			nHigh++
		}
	}
	m.high = make(chan *Job, queueDepth+nHigh)
	m.normal = make(chan *Job, queueDepth+len(requeue)-nHigh)
	for _, j := range requeue {
		if j.Req.Priority == PriorityHigh {
			m.high <- j
		} else {
			m.normal <- j
		}
		j.events.publish(JobEvent{Phase: string(StateQueued), State: StateQueued})
	}

	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m, nil
}

// recover replays the journal, resolves every surviving job, compacts
// the journal, and returns the jobs to re-enqueue in accept order.
// Resolution per journaled job:
//
//   - canceled: forgotten.
//   - done / queued / running with a verified store entry: materialized
//     as a finished job, so a client that was polling the ID when the
//     process died keeps getting answers instead of a 404. For queued
//     and running jobs this covers a crash after the result was
//     persisted but before the done record.
//   - done without a store entry (deleted or corrupt): re-enqueued —
//     re-execution heals the store.
//   - running without a store entry: it may have killed the process, so
//     its crash counter increments before it is re-enqueued; at the
//     quarantine threshold it is parked instead, which is what breaks a
//     poison-job crash loop.
//   - queued without a store entry: re-enqueued unchanged.
//   - quarantined: re-materialized as quarantined.
//   - failed with a nonzero crash counter: the counter is preloaded so
//     resubmissions keep progressing toward quarantine.
func (m *Manager) recover(dataDir string) ([]*Job, error) {
	replayed, skipped, err := replayJournal(dataDir)
	if err != nil {
		return nil, err
	}
	m.journalSkipped.Store(int64(skipped))
	ordered := make([]*journaledJob, 0, len(replayed))
	for _, jj := range replayed {
		ordered = append(ordered, jj)
	}
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].seq < ordered[k].seq })

	var requeue []*Job
	for _, jj := range ordered {
		switch jj.State {
		case StateCanceled:
			continue
		case StateFailed:
			if jj.Attempts > 0 {
				m.attempts[jj.ID] = jj.Attempts
			}
			continue
		case StateQuarantined:
			m.attempts[jj.ID] = jj.Attempts
			m.materializeQuarantined(jj.ID, jj.Key, jj.Req, jj.Attempts)
			m.recoveredQuarantined.Add(1)
			continue
		}
		// done, queued, or running: prefer the persisted result.
		result, ok, serr := m.store.Get(jj.Key)
		if serr != nil {
			m.storeErrors.Add(1) // corrupt entry deleted; re-run heals it
		}
		if ok {
			e := &cacheEntry{key: jj.Key, result: result}
			m.jobs.cache.Put(jj.Key, e)
			m.jobs.materializeDone(jj.ID, jj.Key, jj.Req, e)
			jj.State = StateDone // compaction drops it
			m.recoveredServed.Add(1)
			continue
		}
		switch jj.State {
		case StateRunning:
			jj.Attempts++ // it was live when the process died
			jj.State = StateQueued
		case StateDone:
			jj.State = StateQueued // store entry lost: re-run to heal
		}
		if jj.Attempts >= m.quarantineAfter {
			m.attempts[jj.ID] = jj.Attempts
			m.materializeQuarantined(jj.ID, jj.Key, jj.Req, jj.Attempts)
			jj.State = StateQuarantined
			m.recoveredQuarantined.Add(1)
			continue
		}
		if jj.Attempts > 0 {
			m.attempts[jj.ID] = jj.Attempts
		}
		j := m.jobs.newJob(jj.ID, jj.Key, jj.Req)
		j.state = StateQueued
		j.attempts = jj.Attempts
		m.jobs.live[jj.ID] = j
		requeue = append(requeue, j)
		m.recoveredRequeued.Add(1)
	}
	if err := compactJournal(dataDir, ordered); err != nil {
		return nil, err
	}
	return requeue, nil
}

// quarantineErr is the error a quarantined job reports.
func quarantineErr(attempts int) error {
	return fsmerr.New(fsmerr.CodePanic, "server.quarantine",
		"job quarantined after crashing the executor %d times; it will not be re-executed", attempts)
}

// materializeQuarantined files a parked poison job. The caller holds
// m.jobs.mu or is still constructing the manager.
func (m *Manager) materializeQuarantined(id, key string, req JobRequest, attempts int) *Job {
	j := m.jobs.newJob(id, key, req)
	j.attempts = attempts
	j.finish(StateQuarantined, nil, quarantineErr(attempts))
	m.jobs.finished.Put(id, j)
	m.quarantined.Add(1)
	return j
}

// QueueDepth reports queued (not yet running) jobs.
func (m *Manager) QueueDepth() int { return len(m.high) + len(m.normal) }

// QueueRetryAfter estimates how long a rejected client should back off
// before the queue has drained enough to accept it: the current depth
// spread across the worker pool, clamped to [1s, 30s]. It is a load
// signal, not a promise — the client's jittered backoff rides on it.
func (m *Manager) QueueRetryAfter() time.Duration {
	d := time.Duration(1+m.QueueDepth()/m.workers) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Submit registers a job for the request. The returned bool is true
// when this call created a new job; false when the request joined an
// existing live job or a parked poison job. Submit never blocks on
// execution: a full queue fails fast with ErrQueueFull and a draining
// manager with ErrDraining. With durability enabled, the request is
// journaled (and fsynced) before it becomes runnable — the write-ahead
// step that makes accepted jobs survive a crash.
func (m *Manager) Submit(req JobRequest) (*Job, bool, error) {
	return m.jobs.Submit(req, m.admit)
}

// admit is the daemon's admission step, run with the table locked.
func (m *Manager) admit(a *Admission) (*Job, bool, error) {
	if a.Prev != nil && a.Prev.Status().State == StateQuarantined {
		// Poison stays parked; resubmission reports the verdict.
		return a.Prev, false, nil
	}
	// A done job is re-answered from the cache below (a fresh
	// hit-materialized record replaces it); a failed or canceled one
	// does not poison the table — fall through and retry with a fresh
	// attempt.
	if j, ok := a.Cached(); ok {
		return j, true, nil
	}
	if result, ok, serr := m.store.Get(a.Key); ok {
		// Disk path: the store outlives both the LRU and the process.
		e := &cacheEntry{key: a.Key, result: result}
		m.jobs.cache.Put(a.Key, e)
		return m.jobs.materializeDone(a.ID, a.Key, a.Req, e), true, nil
	} else if serr != nil {
		m.storeErrors.Add(1) // corrupt entry deleted; re-simulate below
	}
	if m.attempts[a.ID] >= m.quarantineAfter {
		// The poison verdict survives table eviction and restarts.
		m.journalAccept(a.ID, a.Key, a.Req)
		m.journalState(a.ID, StateQuarantined, m.attempts[a.ID])
		return m.materializeQuarantined(a.ID, a.Key, a.Req, m.attempts[a.ID]), true, nil
	}

	queue := m.normal
	if a.Req.Priority == PriorityHigh {
		queue = m.high
	}
	// All senders hold the table lock, so the depth check below cannot
	// race with another enqueue: once it passes, the send cannot block.
	// A refused submission does not count as submitted.
	if len(queue) >= m.queueDepth {
		m.jobs.submitted.Add(-1)
		return nil, false, ErrQueueFull
	}
	if err := m.journalAccept(a.ID, a.Key, a.Req); err != nil {
		m.jobs.submitted.Add(-1)
		return nil, false, err
	}
	j := a.Enter()
	j.attempts = m.attempts[a.ID]
	queue <- j
	return j, true, nil
}

// journalAccept appends the write-ahead accept record.
func (m *Manager) journalAccept(id, key string, req JobRequest) error {
	if err := m.journal.accept(id, key, req); err != nil {
		m.storeErrors.Add(1)
		return err
	}
	return nil
}

// journalState appends a lifecycle transition, counting (but not
// failing on) append errors: the job already ran, losing the record
// only costs a redundant re-execution after a crash.
func (m *Manager) journalState(id string, s JobState, attempts int) {
	if err := m.journal.state(id, s, attempts); err != nil {
		m.storeErrors.Add(1)
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) { return m.jobs.Get(id) }

// Cancel cancels a queued or running job.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return true
	}
	if cancel != nil {
		cancel() // running: the simulation truncates at its next watchdog check
		return true
	}
	// Still queued: finish it now; the worker skips terminal jobs.
	m.canceled.Add(1)
	m.jobs.finish(j, StateCanceled, nil, fsmerr.New(fsmerr.CodeCanceled, "server.Cancel", "job canceled before start"))
	m.journalState(j.ID, StateCanceled, 0)
	return true
}

// worker is one executor goroutine: it drains the high-priority queue
// first, then either queue, until both are closed by Drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	high, normal := m.high, m.normal
	for high != nil || normal != nil {
		select {
		case j, ok := <-high:
			if !ok {
				high = nil
				continue
			}
			m.execute(j)
			continue
		default:
		}
		if high == nil {
			j, ok := <-normal
			if !ok {
				return
			}
			m.execute(j)
			continue
		}
		select {
		case j, ok := <-high:
			if !ok {
				high = nil
				continue
			}
			m.execute(j)
		case j, ok := <-normal:
			if !ok {
				normal = nil
				continue
			}
			m.execute(j)
		}
	}
}

// Drain stops intake and waits for in-flight and queued jobs to finish.
// New submissions fail with ErrDraining immediately; queued jobs still
// execute (a completed submission is never dropped). If ctx expires
// first, remaining jobs are canceled and Drain waits for the workers to
// acknowledge before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.stopIntake()
	err := WaitDrained(ctx, &m.wg, m.baseCancel)
	m.closeOnce.Do(func() { m.journal.close() })
	return err
}

// stopIntake stops submissions and closes the queues, once; the
// workers exit when the queues run dry.
func (m *Manager) stopIntake() {
	if m.jobs.StopIntake() {
		close(m.high)
		close(m.normal)
	}
}

// crash simulates a SIGKILL for the recovery tests: the durability
// layer stops writing (as if the process died), every running job is
// hard-canceled, and the workers exit. On-disk state is frozen exactly
// as a real crash would leave it; a fresh manager over the same data
// directory must recover from it.
func (m *Manager) crash() {
	m.journal.disable()
	m.store.disable()
	m.stopIntake()
	m.baseCancel()
	m.wg.Wait()
	m.closeOnce.Do(func() { m.journal.close() })
}
