package server

import (
	"context"
	"errors"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"fsmem/internal/audit"
	"fsmem/internal/fsmerr"
	"fsmem/internal/parallel"
)

// Job is one unit of daemon work. Identity is content-addressed: the
// ID hashes the request's canonical key, so identical requests share a
// Job (and therefore execute at most once while live — singleflight
// without a separate filling lock).
type Job struct {
	ID  string
	Key string
	Req JobRequest
	// worker is the owning daemon's WorkerName, stamped at creation.
	worker string

	events *eventLog
	done   chan struct{} // closed at any terminal state
	cancel context.CancelFunc

	// progress counters are written by pool workers mid-run.
	progressDone  atomic.Int64
	progressTotal atomic.Int64

	mu       sync.Mutex
	state    JobState
	cacheHit bool
	attempts int
	entry    *cacheEntry
	err      error
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID: j.ID, Kind: j.Req.Kind, State: j.state, Priority: j.Req.Priority,
		CacheHit: j.cacheHit,
		Worker:   j.worker,
		Attempts: j.attempts,
		Progress: Progress{Done: int(j.progressDone.Load()), Total: int(j.progressTotal.Load())},
	}
	if j.err != nil {
		s.Error = j.err.Error()
		s.ErrorCode = string(fsmerr.CodeOf(j.err))
	}
	return s
}

// Result returns the finished job's cached payload.
func (j *Job) Result() (*cacheEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry, j.entry != nil && j.state == StateDone
}

// Done exposes the terminal-state signal (closed when the job finishes,
// fails, or is canceled).
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state exactly once, publishing the
// closing event and releasing waiters.
func (j *Job) finish(s JobState, entry *cacheEntry, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.entry = entry
	j.err = err
	j.mu.Unlock()
	ev := JobEvent{Phase: string(s), State: s, Done: int(j.progressDone.Load()), Total: int(j.progressTotal.Load())}
	if err != nil {
		ev.Error = err.Error()
	}
	j.events.publish(ev)
	j.events.close()
	close(j.done)
}

// Submission errors the HTTP layer maps onto status codes.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server is draining")
)

// Manager owns the job table, the bounded two-priority queue, and the
// executor pool. Execution itself funnels every job body through
// internal/parallel, which supplies panic isolation and cancellation
// semantics identical to the batch CLIs'.
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
	name            string // Options.WorkerName, stamped on job statuses
	cache           *LRU[*cacheEntry]

	journal *journal
	store   *Store

	baseCtx    context.Context
	baseCancel context.CancelFunc

	high, normal chan *Job
	wg           sync.WaitGroup
	closeOnce    sync.Once

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	finished []string       // FIFO of terminal job IDs, for table eviction
	attempts map[string]int // executor-crash counters, by job ID

	// testRun, when set, replaces Manager.run inside the execution cell
	// (the quarantine tests use it to build deterministic poison jobs).
	testRun func(context.Context, *Job) (*cacheEntry, error)

	// counters for /metrics
	submitted, executed, completed, failed, canceled atomic.Int64
	inFlight, quarantined                            atomic.Int64
	recoveredRequeued, recoveredServed               atomic.Int64
	recoveredQuarantined, journalSkipped             atomic.Int64
	storeErrors                                      atomic.Int64
	// auditMetrics accumulates leakage-audit campaign counters across
	// every audit job this manager executes, exposed under
	// fsmemd.audit.* on /metrics.
	auditMetrics audit.Metrics
}

// maxFinished bounds how many terminal job records stay addressable;
// beyond it the oldest are evicted (their results usually remain in the
// LRU cache, so a resubmission is still a cache hit).
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
		name:            o.WorkerName,
		cache:           NewLRU[*cacheEntry](cacheEntries),
		baseCtx:         ctx,
		baseCancel:      cancel,
		jobs:            map[string]*Job{},
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
			j := m.materializeDone(jj.ID, jj.Key, jj.Req, &cacheEntry{key: jj.Key, result: result})
			m.cache.Put(jj.Key, j.entry)
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
		j := &Job{ID: jj.ID, Key: jj.Key, Req: jj.Req, worker: m.name, events: newEventLog(), done: make(chan struct{})}
		j.state = StateQueued
		j.attempts = jj.Attempts
		m.jobs[jj.ID] = j
		requeue = append(requeue, j)
		m.recoveredRequeued.Add(1)
	}
	if err := compactJournal(dataDir, ordered); err != nil {
		return nil, err
	}
	return requeue, nil
}

// materializeDone installs a finished job served from persisted state.
// Callers hold no locks (construction time) or m.mu (Submit path).
func (m *Manager) materializeDone(id, key string, req JobRequest, entry *cacheEntry) *Job {
	j := &Job{ID: id, Key: key, Req: req, worker: m.name, events: newEventLog(), done: make(chan struct{})}
	j.cacheHit = true
	j.state = StateDone
	j.entry = entry
	j.progressDone.Store(1)
	j.progressTotal.Store(1)
	m.jobs[id] = j
	m.rememberFinishedLocked(id)
	j.events.publish(JobEvent{Phase: string(StateDone), State: StateDone, Done: 1, Total: 1})
	j.events.close()
	close(j.done)
	return j
}

// quarantineErr is the error a quarantined job reports.
func quarantineErr(attempts int) error {
	return fsmerr.New(fsmerr.CodePanic, "server.quarantine",
		"job quarantined after crashing the executor %d times; it will not be re-executed", attempts)
}

// materializeQuarantined installs a parked poison job.
func (m *Manager) materializeQuarantined(id, key string, req JobRequest, attempts int) *Job {
	j := &Job{ID: id, Key: key, Req: req, worker: m.name, events: newEventLog(), done: make(chan struct{})}
	j.state = StateQuarantined
	j.attempts = attempts
	j.err = quarantineErr(attempts)
	m.jobs[id] = j
	m.rememberFinishedLocked(id)
	m.quarantined.Add(1)
	j.events.publish(JobEvent{Phase: string(StateQuarantined), State: StateQuarantined, Error: j.err.Error()})
	j.events.close()
	close(j.done)
	return j
}

// QueueDepth reports queued (not yet running) jobs.
func (m *Manager) QueueDepth() int { return len(m.high) + len(m.normal) }

// Submit registers a job for the request. The returned bool is true
// when this call created a new job; false when the request joined an
// existing live job or was answered from cache. Submit never blocks on
// execution: a full queue fails fast with errQueueFull and a draining
// manager with errDraining. With durability enabled, the request is
// journaled (and fsynced) before it becomes runnable — the write-ahead
// step that makes accepted jobs survive a crash.
func (m *Manager) Submit(req JobRequest) (*Job, bool, error) {
	key, err := req.normalize()
	if err != nil {
		return nil, false, fsmerr.Wrap(fsmerr.CodeConfig, "server.Submit", err)
	}
	id := jobID(key)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, errDraining
	}
	m.submitted.Add(1)
	if j, ok := m.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if !state.Terminal() {
			// Live job: join it (this is the singleflight).
			return j, false, nil
		}
		if state == StateQuarantined {
			// Poison stays parked; resubmission reports the verdict.
			return j, false, nil
		}
		// Terminal: a done job is re-answered from the cache below (a
		// fresh hit-materialized record replaces it); a failed or
		// canceled one does not poison the table — fall through and
		// retry with a fresh attempt.
	}

	if entry, ok := m.cache.Get(key); ok {
		// Warm path: materialize a finished job straight from cache.
		return m.materializeDone(id, key, req, entry), true, nil
	}
	if result, ok, serr := m.store.Get(key); ok {
		// Disk path: the store outlives both the LRU and the process.
		entry := &cacheEntry{key: key, result: result}
		m.cache.Put(key, entry)
		return m.materializeDone(id, key, req, entry), true, nil
	} else if serr != nil {
		m.storeErrors.Add(1) // corrupt entry deleted; re-simulate below
	}
	if m.attempts[id] >= m.quarantineAfter {
		// The poison verdict survives table eviction and restarts.
		m.journalAccept(id, key, req)
		m.journalState(id, StateQuarantined, m.attempts[id])
		return m.materializeQuarantined(id, key, req, m.attempts[id]), true, nil
	}

	queue := m.normal
	if req.Priority == PriorityHigh {
		queue = m.high
	}
	// All senders hold m.mu, so the depth check below cannot race with
	// another enqueue: once it passes, the send cannot block.
	if len(queue) >= m.queueDepth {
		m.submitted.Add(-1)
		return nil, false, errQueueFull
	}
	if err := m.journalAccept(id, key, req); err != nil {
		m.submitted.Add(-1)
		return nil, false, err
	}
	j := &Job{ID: id, Key: key, Req: req, worker: m.name, events: newEventLog(), done: make(chan struct{})}
	j.state = StateQueued
	j.attempts = m.attempts[id]
	queue <- j
	m.jobs[id] = j
	j.events.publish(JobEvent{Phase: string(StateQueued), State: StateQueued})
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
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

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
	j.finish(StateCanceled, nil, fsmerr.New(fsmerr.CodeCanceled, "server.Cancel", "job canceled before start"))
	m.journalState(j.ID, StateCanceled, 0)
	m.noteFinished(j.ID)
	return true
}

func (m *Manager) rememberFinishedLocked(id string) {
	m.finished = append(m.finished, id)
	for len(m.finished) > maxFinished {
		evict := m.finished[0]
		m.finished = m.finished[1:]
		if j, ok := m.jobs[evict]; ok {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, evict)
			}
		}
	}
}

func (m *Manager) noteFinished(id string) {
	m.mu.Lock()
	m.rememberFinishedLocked(id)
	m.mu.Unlock()
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

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops intake and waits for in-flight and queued jobs to finish.
// New submissions fail with errDraining immediately; queued jobs still
// execute (a completed submission is never dropped). If ctx expires
// first, remaining jobs are canceled and Drain waits for the workers to
// acknowledge before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.high)
		close(m.normal)
	}
	m.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		m.baseCancel() // hard-cancel stragglers, then wait them out
		<-workersDone
		err = ctx.Err()
	}
	m.closeOnce.Do(func() { m.journal.close() })
	return err
}

// crash simulates a SIGKILL for the recovery tests: the durability
// layer stops writing (as if the process died), every running job is
// hard-canceled, and the workers exit. On-disk state is frozen exactly
// as a real crash would leave it; a fresh manager over the same data
// directory must recover from it.
func (m *Manager) crash() {
	m.journal.disable()
	m.store.disable()
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.high)
		close(m.normal)
	}
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	m.closeOnce.Do(func() { m.journal.close() })
}
