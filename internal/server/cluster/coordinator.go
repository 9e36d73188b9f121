package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/fsmerr"
	"fsmem/internal/obs"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
)

// Options configures the coordinator.
type Options struct {
	// Addr is the listen address for Serve ("" = ":8376").
	Addr string
	// Workers is the initial fleet: fsmemd worker base URLs. More can
	// join later through POST /v1/cluster/register.
	Workers []string
	// HeartbeatInterval paces the fleet health probes (0 = 500ms).
	HeartbeatInterval time.Duration
	// FailAfter is how many consecutive failed heartbeats demote a
	// worker to unhealthy (0 = 2). Demotion cancels the worker's health
	// epoch, which immediately aborts and re-routes everything parked on
	// it — that is the work-stealing path.
	FailAfter int
	// Window bounds in-flight jobs per worker (0 = 8).
	Window int
	// MaxAttempts bounds how many workers one job is tried on before the
	// coordinator gives up (0 = 8). Retrying on another worker is always
	// sound: job IDs are content-addressed and execution is
	// byte-deterministic, so a duplicate execution racing a slow first
	// attempt produces identical bytes.
	MaxAttempts int
	// VerifySample is the fraction [0,1] of completed jobs the
	// coordinator re-executes on a second worker and byte-compares —
	// determinism as a distributed integrity check. Sampling is
	// deterministic per job ID. 0 disables verification.
	VerifySample float64
	// CacheEntries bounds the coordinator's local LRU over fetched
	// result documents (0 = 1024); cached jobs are re-served locally
	// without touching the fleet.
	CacheEntries int
	// QueueDepth bounds accepted-but-unfinished jobs; beyond it new
	// submissions get 429 queue_full (0 = 256).
	QueueDepth int
	// PollInterval paces worker status polls for dispatched jobs
	// (0 = 10ms).
	PollInterval time.Duration
	// RequestTimeout bounds request handling (0 = 30s); DrainTimeout
	// bounds graceful drain (0 = 60s).
	RequestTimeout time.Duration
	DrainTimeout   time.Duration

	// newClient overrides worker client construction (tests).
	newClient func(name string) *client.Client
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = ":8376"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 10 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 60 * time.Second
	}
}

// maxFinished bounds how many terminal job records stay addressable in
// the coordinator's table (results usually remain in the LRU, so an
// evicted job's resubmission is still a local cache hit).
const maxFinished = 4096

var errNoWorkers = errors.New("no healthy workers")

// Coordinator fronts a fleet of fsmemd workers: it serves the daemon's
// job API over the shared job table, consistent-hash-routes each job
// to a worker, re-serves finished results from the table's cache,
// steals work off unhealthy workers, and samples cross-worker
// byte-identity.
type Coordinator struct {
	opts    Options
	members *Registry
	jobs    *server.Table
	api     *server.API

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	completed atomic.Int64
	failed    atomic.Int64
	cacheHits atomic.Int64
	retries   atomic.Int64 // dispatch attempts beyond a job's first
	steals    atomic.Int64 // re-routes forced by an unhealthy worker

	verifySampled  atomic.Int64
	verifyOK       atomic.Int64
	verifyMismatch atomic.Int64
	verifySkipped  atomic.Int64 // sampled but no second healthy worker
	verifyErrors   atomic.Int64
}

// New assembles a coordinator over the initial worker fleet and starts
// its heartbeat loop.
func New(o Options) (*Coordinator, error) {
	o.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:       o,
		jobs:       server.NewTable("", maxFinished, o.CacheEntries),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	c.members = newRegistry(o.HeartbeatInterval, o.FailAfter, o.Window, o.newClient)
	for _, w := range o.Workers {
		if w == "" {
			continue
		}
		c.members.Add(w)
	}
	c.api = server.NewAPI(c.jobs, c, c.buildMetrics(), o.RequestTimeout, o.DrainTimeout)
	c.api.Handle("GET /v1/cluster", c.handleCluster)
	c.api.Handle("POST /v1/cluster/register", c.handleRegister)
	return c, nil
}

// Members exposes the membership registry (tests and /v1/cluster).
func (c *Coordinator) Members() *Registry { return c.members }

// Submit accepts one job: it joins a live duplicate (singleflight),
// answers from the table's result cache, or admits the job and
// dispatches it to the fleet in the background. The returned bool is
// true when this call created a new job record.
func (c *Coordinator) Submit(req server.JobRequest) (*server.Job, bool, error) {
	return c.jobs.Submit(req, c.admit)
}

// admit is the coordinator's admission step, run with the table
// locked: a done record is re-answered in place as a cache hit, and a
// new job must fit under the live cap before it is dispatched.
func (c *Coordinator) admit(a *server.Admission) (*server.Job, bool, error) {
	if j, ok := a.ReuseDone(); ok {
		c.cacheHits.Add(1)
		return j, false, nil
	}
	if j, ok := a.Cached(); ok {
		c.cacheHits.Add(1)
		return j, true, nil
	}
	if a.Live >= c.opts.QueueDepth {
		return nil, false, server.ErrQueueFull
	}
	j := a.Enter()
	c.wg.Add(1)
	go c.dispatch(j)
	return j, true, nil
}

// Get returns a job by ID.
func (c *Coordinator) Get(id string) (*server.Job, bool) { return c.jobs.Get(id) }

// dispatch places one job on the fleet, walking the ring's preference
// order across failures: the owner first, then successive distinct
// members. Deterministic worker-side failures stop the walk (the same
// config fails identically everywhere); transport errors and unhealthy
// epochs re-route — the retry is idempotent because the job ID is
// content-addressed.
func (c *Coordinator) dispatch(j *server.Job) {
	defer c.wg.Done()
	tried := map[string]bool{}
	var lastErr error = errNoWorkers
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if c.baseCtx.Err() != nil {
			break
		}
		m := c.members.Pick(j.ID, tried)
		if m == nil {
			// Every member tried or unhealthy: clear the visited set and
			// wait a heartbeat for the fleet to recover before burning
			// another attempt.
			tried = map[string]bool{}
			select {
			case <-c.baseCtx.Done():
			case <-time.After(c.opts.HeartbeatInterval):
			}
			lastErr = errNoWorkers
			continue
		}
		if attempt > 1 {
			c.retries.Add(1)
		}
		err := c.runOn(j, m)
		if err == nil {
			return // job reached a terminal state
		}
		lastErr = err
		tried[m.Name] = true
		if !m.Healthy() {
			m.stolen.Add(1)
			c.steals.Add(1)
		}
	}
	c.failed.Add(1)
	c.jobs.Finish(j, server.StateFailed, "", nil,
		fsmerr.New(fsmerr.CodeExperiment, "cluster.dispatch",
			"job %s failed after %d dispatch attempts: %v", j.ID, c.opts.MaxAttempts, lastErr))
}

// runOn executes one dispatch attempt on member m. A nil return means
// the job reached a terminal state (done, or a deterministic worker
// verdict); an error means the attempt should be retried elsewhere.
func (c *Coordinator) runOn(j *server.Job, m *Member) error {
	// Bind the attempt to the member's health epoch: the moment the
	// heartbeat loop demotes m, everything below aborts and the caller
	// re-routes — queued work is stolen off the dying worker without
	// waiting out an HTTP timeout.
	ctx, cancel := context.WithCancel(c.baseCtx)
	defer cancel()
	stop := context.AfterFunc(m.epoch(), cancel)
	defer stop()

	if err := m.acquire(ctx); err != nil {
		return fmt.Errorf("worker %s window: %w", m.Name, err)
	}
	defer m.release()
	m.routed.Add(1)
	j.Start(m.Name)

	st, err := m.cl.Submit(ctx, j.Req)
	if err != nil {
		m.failedJobs.Add(1)
		return fmt.Errorf("worker %s submit: %w", m.Name, err)
	}
	if !st.State.Terminal() {
		st, err = m.cl.Wait(ctx, st.ID, c.opts.PollInterval)
		if err != nil {
			m.failedJobs.Add(1)
			return fmt.Errorf("worker %s wait: %w", m.Name, err)
		}
	}
	switch st.State {
	case server.StateDone:
		raw, err := m.cl.Result(ctx, st.ID)
		if err != nil {
			m.failedJobs.Add(1)
			return fmt.Errorf("worker %s result: %w", m.Name, err)
		}
		c.complete(j, m, raw)
		return nil
	case server.StateFailed, server.StateQuarantined:
		// Deterministic verdict: byte-deterministic execution means the
		// same config fails the same way on every worker, so re-routing
		// would only repeat it.
		c.failed.Add(1)
		code := fsmerr.Code(st.ErrorCode)
		if code == "" {
			code = fsmerr.CodeExperiment
		}
		c.jobs.Finish(j, st.State, m.Name, nil,
			fsmerr.New(code, "cluster.runOn", "worker %s: job %s: %s", m.Name, st.State, st.Error))
		return nil
	default:
		// Canceled on the worker (its drain raced ours): transient.
		m.failedJobs.Add(1)
		return fmt.Errorf("worker %s: job ended %s", m.Name, st.State)
	}
}

// complete records a finished result, re-serves it from the table's
// cache from now on, and kicks off the sampled cross-worker
// verification.
func (c *Coordinator) complete(j *server.Job, m *Member, raw []byte) {
	m.completed.Add(1)
	c.completed.Add(1)
	c.jobs.Finish(j, server.StateDone, m.Name, raw, nil)
	if c.sampled(j.ID) {
		c.verifySampled.Add(1)
		c.wg.Add(1)
		go c.verify(j, m.Name, raw)
	}
}

// sampled decides — deterministically per job ID — whether a finished
// job is re-executed on a second worker for the byte-identity check.
func (c *Coordinator) sampled(id string) bool {
	s := c.opts.VerifySample
	if s <= 0 {
		return false
	}
	if s >= 1 {
		return true
	}
	return float64(hash64(id+"|verify")%1_000_000) < s*1_000_000
}

// verify re-executes a finished job on a different worker and
// byte-compares the result documents. Determinism says they must be
// identical; a mismatch means a worker computed (or stored) the wrong
// bytes, and is surfaced through the fleet metrics.
func (c *Coordinator) verify(j *server.Job, firstWorker string, want []byte) {
	defer c.wg.Done()
	var second *Member
	for _, name := range c.ringOrder(j.ID) {
		if name == firstWorker {
			continue
		}
		if m, ok := c.members.Get(name); ok && m.Healthy() {
			second = m
			break
		}
	}
	if second == nil {
		c.verifySkipped.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, c.opts.RequestTimeout)
	defer cancel()
	st, err := second.cl.Submit(ctx, j.Req)
	if err == nil && !st.State.Terminal() {
		st, err = second.cl.Wait(ctx, st.ID, c.opts.PollInterval)
	}
	if err != nil || st.State != server.StateDone {
		c.verifyErrors.Add(1)
		return
	}
	got, err := second.cl.Result(ctx, st.ID)
	if err != nil {
		c.verifyErrors.Add(1)
		return
	}
	if string(got) == string(want) {
		c.verifyOK.Add(1)
	} else {
		c.verifyMismatch.Add(1)
	}
}

func (c *Coordinator) ringOrder(id string) []string {
	c.members.mu.Lock()
	defer c.members.mu.Unlock()
	return c.members.ring.Lookup(id, len(c.members.members))
}

// Status assembles the /v1/cluster fleet document.
func (c *Coordinator) Status() server.ClusterStatus {
	st := server.ClusterStatus{
		Submitted:        c.jobs.Submitted(),
		Completed:        c.completed.Load(),
		Failed:           c.failed.Load(),
		CacheHits:        c.cacheHits.Load(),
		Retries:          c.retries.Load(),
		Steals:           c.steals.Load(),
		VerifySampled:    c.verifySampled.Load(),
		VerifyOK:         c.verifyOK.Load(),
		VerifyMismatches: c.verifyMismatch.Load(),
	}
	st.Live = c.jobs.Live()
	for _, m := range c.members.Members() {
		st.Workers = append(st.Workers, server.ClusterWorker{
			Name:           m.Name,
			Healthy:        m.Healthy(),
			InFlight:       m.inFlight.Load(),
			Routed:         m.routed.Load(),
			Completed:      m.completed.Load(),
			Failed:         m.failedJobs.Load(),
			Stolen:         m.stolen.Load(),
			HeartbeatFails: m.heartbeatFails.Load(),
		})
	}
	return st
}

// buildMetrics registers the fleet counters for /metrics: coordinator
// totals under fsmemd_cluster_*, plus one block per worker keyed by its
// sanitized name.
func (c *Coordinator) buildMetrics() *obs.Registry {
	r := obs.NewRegistry()
	r.Source("fsmemd.cluster", obs.SourceFunc(func(emit func(string, float64)) {
		emit("jobs.submitted", float64(c.jobs.Submitted()))
		emit("jobs.completed", float64(c.completed.Load()))
		emit("jobs.failed", float64(c.failed.Load()))
		emit("jobs.cache_hits", float64(c.cacheHits.Load()))
		emit("jobs.live", float64(c.jobs.Live()))
		entries, _, _ := c.jobs.CacheStats()
		emit("cache.entries", float64(entries))
		emit("dispatch.retries", float64(c.retries.Load()))
		emit("dispatch.steals", float64(c.steals.Load()))
		emit("verify.sampled", float64(c.verifySampled.Load()))
		emit("verify.ok", float64(c.verifyOK.Load()))
		emit("verify.mismatches", float64(c.verifyMismatch.Load()))
		emit("verify.skipped", float64(c.verifySkipped.Load()))
		emit("verify.errors", float64(c.verifyErrors.Load()))
		emit("http.requests", float64(c.api.Requests()))
		members := c.members.Members()
		healthy := 0
		for _, m := range members {
			if m.Healthy() {
				healthy++
			}
		}
		emit("workers.registered", float64(len(members)))
		emit("workers.healthy", float64(healthy))
		for _, m := range members {
			label := "worker." + obs.LabelName(m.Name) + "."
			up := 0.0
			if m.Healthy() {
				up = 1
			}
			emit(label+"healthy", up)
			emit(label+"in_flight", float64(m.inFlight.Load()))
			emit(label+"routed", float64(m.routed.Load()))
			emit(label+"completed", float64(m.completed.Load()))
			emit(label+"failed", float64(m.failedJobs.Load()))
			emit(label+"stolen", float64(m.stolen.Load()))
			emit(label+"heartbeat_fails", float64(m.heartbeatFails.Load()))
		}
	}))
	return r
}

// Handler returns the coordinator's HTTP handler: the daemon's job
// API plus the fleet routes, so the typed client and cmd/fsload work
// against a coordinator unchanged.
func (c *Coordinator) Handler() http.Handler { return c.api.Handler() }

// QueueRetryAfter spreads the live backlog across the fleet's
// aggregate window as a backoff hint, clamped to [1s, 30s].
func (c *Coordinator) QueueRetryAfter() time.Duration {
	slots := c.members.HealthyCount() * c.opts.Window
	if slots < 1 {
		slots = 1
	}
	secs := 1 + c.jobs.Live()/slots
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req server.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "decoding register request: %v", err)
		return
	}
	if req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "register needs a worker addr")
		return
	}
	if c.jobs.Draining() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	c.members.Add(req.Addr)
	server.WriteJSON(w, http.StatusOK, c.Status())
}

// Drain stops intake and waits for in-flight dispatches (and pending
// verifications) to finish; past ctx it hard-cancels stragglers.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.jobs.StopIntake()
	err := server.WaitDrained(ctx, &c.wg, c.baseCancel)
	c.baseCancel()
	c.members.close()
	return err
}

// Serve listens on o.Addr and runs the coordinator until ctx is
// canceled, then drains gracefully (see server.API.ServeListener).
func Serve(ctx context.Context, o Options) error {
	c, err := New(o)
	if err != nil {
		return err
	}
	return c.api.ListenAndServe(ctx, c.opts.Addr)
}

// ServeListener is Serve on an existing listener (ownership transfers).
func (c *Coordinator) ServeListener(ctx context.Context, ln net.Listener) error {
	return c.api.ServeListener(ctx, ln)
}
