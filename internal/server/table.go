package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/fsmerr"
)

// Submission errors the job API maps onto status codes.
var (
	// ErrDraining refuses a submission once intake has stopped (503).
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull refuses a submission the role has no room for (429).
	ErrQueueFull = errors.New("job queue is full")
)

// Job is one unit of work, on the daemon or through the coordinator.
// Identity is content-addressed: the ID hashes the request's canonical
// key, so identical requests share a Job (and therefore execute at most
// once while live — singleflight without a separate filling lock).
type Job struct {
	ID  string
	Key string
	Req JobRequest

	events *eventLog
	done   chan struct{} // closed at any terminal state
	cancel context.CancelFunc

	// progress counters are written by pool workers mid-run.
	progressDone  atomic.Int64
	progressTotal atomic.Int64

	// served is set once a terminal state has been answered to a client
	// (status, result, cancel, or the final SSE event); a drained front
	// end lingers for it.
	served atomic.Bool

	mu       sync.Mutex
	state    JobState
	worker   string // the daemon's WorkerName, or the fleet member that ran it
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

// Result returns the finished job's result document.
func (j *Job) Result() ([]byte, bool) {
	e, ok := j.output()
	if !ok {
		return nil, false
	}
	return e.result, true
}

// output returns the finished job's cache entry.
func (j *Job) output() (*cacheEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry, j.entry != nil && j.state == StateDone
}

// Done exposes the terminal-state signal (closed when the job finishes,
// fails, or is canceled).
func (j *Job) Done() <-chan struct{} { return j.done }

// Start marks a queued job running on worker.
func (j *Job) Start(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.state = StateRunning
		j.worker = worker
	}
}

// finish moves the job to a terminal state exactly once, publishing the
// closing event and releasing waiters. It reports whether this call
// made the transition.
func (j *Job) finish(s JobState, entry *cacheEntry, err error) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
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
	return true
}

// noteServed records that a client has read state s of the job.
func (j *Job) noteServed(s JobState) {
	if s.Terminal() {
		j.served.Store(true)
	}
}

// Table is the job table both front ends share: the daemon's Manager
// and the cluster coordinator. It holds the live records, the terminal
// records keyed by job ID (least recently used evicted first), the
// result cache, the draining flag, and the submission steps every role
// runs before its own admission step.
type Table struct {
	name  string // stamped as the worker on the records this table builds
	cache *LRU[*cacheEntry]

	mu        sync.Mutex
	draining  bool
	live      map[string]*Job // accepted, not yet terminal
	finished  *LRU[*Job]      // terminal records, by job ID
	pending   []*Job          // live when intake stopped, for the drain linger
	submitted atomic.Int64
}

// NewTable returns an empty table keeping at most maxFinished terminal
// records and cacheEntries result documents. Records it builds name
// worker as the job's worker.
func NewTable(worker string, maxFinished, cacheEntries int) *Table {
	return &Table{
		name:     worker,
		cache:    NewLRU[*cacheEntry](cacheEntries),
		live:     map[string]*Job{},
		finished: NewLRU[*Job](maxFinished),
	}
}

// Admission is a submission that passed the shared steps: a valid
// request, open intake, and no live job with its ID. A role's admission
// step receives it with the table locked and either refuses it or
// returns the record that answers it, with true when that record is new.
type Admission struct {
	ID, Key string
	Req     JobRequest
	// Prev is the job's terminal record, if the table still holds one.
	Prev *Job
	// Live counts the table's accepted, non-terminal jobs.
	Live int
	t    *Table
}

// Submit canonicalizes req, refuses it while draining, joins a live job
// with the same ID (singleflight), and otherwise hands it to admit.
// Every submission past the draining check counts as submitted. admit
// runs with the table locked, so that a check and the record it files
// are one step; it must not block or call back into the table.
func (t *Table) Submit(req JobRequest, admit func(*Admission) (*Job, bool, error)) (*Job, bool, error) {
	id, key, err := Canonicalize(&req)
	if err != nil {
		return nil, false, fsmerr.Wrap(fsmerr.CodeConfig, "server.Submit", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return nil, false, ErrDraining
	}
	t.submitted.Add(1)
	if j, ok := t.live[id]; ok {
		return j, false, nil
	}
	prev, _ := t.finished.Get(id)
	return admit(&Admission{ID: id, Key: key, Req: req, Prev: prev, Live: len(t.live), t: t})
}

// Enter files a new queued record for the submission.
func (a *Admission) Enter() *Job {
	j := a.t.newJob(a.ID, a.Key, a.Req)
	j.state = StateQueued
	a.t.live[a.ID] = j
	j.events.publish(JobEvent{Phase: string(StateQueued), State: StateQueued})
	return j
}

// Cached answers the submission from the result cache with a fresh
// done record.
func (a *Admission) Cached() (*Job, bool) {
	e, ok := a.t.cache.Get(a.Key)
	if !ok {
		return nil, false
	}
	return a.t.materializeDone(a.ID, a.Key, a.Req, e), true
}

// ReuseDone answers the submission with its done record, flagged as a
// cache hit, when the table still holds one.
func (a *Admission) ReuseDone() (*Job, bool) {
	j := a.Prev
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	j.cacheHit = true
	return j, true
}

func (t *Table) newJob(id, key string, req JobRequest) *Job {
	return &Job{ID: id, Key: key, Req: req, worker: t.name, events: newEventLog(), done: make(chan struct{})}
}

// materializeDone files a finished record answered from a stored
// result. The caller holds t.mu or is still constructing the table.
func (t *Table) materializeDone(id, key string, req JobRequest, e *cacheEntry) *Job {
	j := t.newJob(id, key, req)
	if e.worker != "" {
		j.worker = e.worker
	}
	j.cacheHit = true
	j.progressDone.Store(1)
	j.progressTotal.Store(1)
	j.finish(StateDone, e, nil)
	t.finished.Put(id, j)
	return j
}

// finish moves j to a terminal state, once, and refiles it among the
// terminal records.
func (t *Table) finish(j *Job, s JobState, e *cacheEntry, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.finish(s, e, err) {
		delete(t.live, j.ID)
		t.finished.Put(j.ID, j)
	}
}

// Finish moves j, once, to terminal state s with the verdict of the
// fleet member worker ("" for none). A done job's result document is
// cached under its key.
func (t *Table) Finish(j *Job, s JobState, worker string, result []byte, err error) {
	var e *cacheEntry
	if s == StateDone {
		e = &cacheEntry{key: j.Key, result: result, worker: worker}
		t.cache.Put(j.Key, e)
		j.progressDone.Store(1)
		j.progressTotal.Store(1)
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.worker = worker
	}
	j.mu.Unlock()
	t.finish(j, s, e, err)
}

// Get returns a job by ID: its live record, else its terminal one.
func (t *Table) Get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.live[id]; ok {
		return j, true
	}
	return t.finished.Get(id)
}

// StopIntake flips the table to draining; later submissions fail with
// ErrDraining. It reports whether this call was the one that stopped
// intake. Submissions send to a role's queues only while holding the
// table lock and after the draining check, so once StopIntake returns
// no submission can reach a queue again.
func (t *Table) StopIntake() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	t.draining = true
	for _, j := range t.live {
		t.pending = append(t.pending, j)
	}
	return true
}

// Draining reports whether intake has stopped.
func (t *Table) Draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}

// Live counts accepted, non-terminal jobs.
func (t *Table) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// Submitted counts submissions past the draining check.
func (t *Table) Submitted() int64 { return t.submitted.Load() }

// CacheStats reads the result cache counters.
func (t *Table) CacheStats() (entries int, hits, misses int64) { return t.cache.Stats() }

// lingerTimeout bounds how long a drained front end keeps answering
// clients that have not yet read the terminal state of a job that was
// live when intake stopped.
const lingerTimeout = 5 * time.Second

// linger returns once every job that was live when intake stopped has
// had its terminal state served, or after lingerTimeout.
func (t *Table) linger() {
	t.mu.Lock()
	pending := t.pending
	t.mu.Unlock()
	deadline := time.Now().Add(lingerTimeout)
	for _, j := range pending {
		for !j.served.Load() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}
