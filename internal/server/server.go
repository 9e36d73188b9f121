package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fsmem/internal/fsmerr"
	"fsmem/internal/obs"
)

// Options configures the daemon.
type Options struct {
	// Addr is the listen address for Serve ("" = ":8377").
	Addr string
	// Workers bounds concurrent job executions (0 = GOMAXPROCS).
	Workers int
	// GridShards bounds the worker pool each grid-shaped job (figures,
	// chaos, leakage) shards its simulations across (0 = Workers).
	GridShards int
	// QueueDepth bounds each priority queue (0 = 64); a full queue
	// rejects submissions with 429 queue_full.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (0 = 256).
	CacheEntries int
	// RatePerSec and Burst shape the submission token bucket
	// (0 = 50/s, burst = rate).
	RatePerSec float64
	Burst      float64
	// RequestTimeout bounds non-streaming request handling (0 = 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful drain: in-flight and queued jobs get
	// this long to finish before they are canceled (0 = 60s).
	DrainTimeout time.Duration
	// DataDir enables crash-safe durability: accepted jobs are journaled
	// (write-ahead) under it and finished results are persisted to a
	// content-addressed disk store, so a restarted daemon re-serves done
	// work byte-identically and re-enqueues interrupted work. Empty
	// keeps the daemon fully in-memory (the pre-durability behavior).
	DataDir string
	// QuarantineAfter is how many executor crashes (panics, or being
	// mid-run when the process dies) park a job as "quarantined" instead
	// of re-executing it (0 = 3).
	QuarantineAfter int
	// WorkerName is this daemon's identity, stamped on every job status
	// document (fsmemd -advertise sets it for cluster workers so
	// per-worker attribution survives end to end). Empty leaves statuses
	// unattributed.
	WorkerName string
	// now overrides the clock for the rate limiter and Retry-After
	// computation (tests; nil = time.Now).
	now func() time.Time
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = ":8377"
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 60 * time.Second
	}
}

// Server is the daemon: job manager, result cache, rate limiter, and
// the HTTP API over them.
type Server struct {
	opts    Options
	manager *Manager
	bucket  *tokenBucket
	mux     *http.ServeMux

	registry *obs.Registry

	httpRequests atomic.Int64
	rateLimited  atomic.Int64
}

// New assembles a Server (the executor pool starts immediately; use
// Drain to stop it). The returned server's Handler can be mounted on
// any listener — the tests use httptest. With Options.DataDir set, New
// first recovers journaled state from a previous process: it only
// errors when that durability layer cannot be opened.
func New(o Options) (*Server, error) {
	o.fill()
	m, err := newManager(o)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    o,
		manager: m,
		bucket:  newTokenBucket(o.RatePerSec, o.Burst, o.now),
	}
	s.buildMetrics()
	s.buildRoutes()
	return s, nil
}

// Manager exposes the job manager (tests and fsmem.Serve use it).
func (s *Server) Manager() *Manager { return s.manager }

// buildMetrics registers the server counters alongside the obs
// conventions: dotted names, sanitized at exposition time. Sources read
// atomics, so the per-scrape snapshot is safe against concurrent
// request handling.
func (s *Server) buildMetrics() {
	r := obs.NewRegistry()
	r.Source("fsmemd", obs.SourceFunc(func(emit func(string, float64)) {
		m := s.manager
		emit("jobs.submitted", float64(m.submitted.Load()))
		emit("jobs.executed", float64(m.executed.Load()))
		emit("jobs.completed", float64(m.completed.Load()))
		emit("jobs.failed", float64(m.failed.Load()))
		emit("jobs.canceled", float64(m.canceled.Load()))
		emit("jobs.in_flight", float64(m.inFlight.Load()))
		emit("queue.depth", float64(m.QueueDepth()))
		entries, hits, misses := m.cache.Stats()
		emit("cache.entries", float64(entries))
		emit("cache.hits", float64(hits))
		emit("cache.misses", float64(misses))
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		emit("cache.hit_ratio", ratio)
		emit("jobs.quarantined", float64(m.quarantined.Load()))
		emit("recovery.requeued", float64(m.recoveredRequeued.Load()))
		emit("recovery.served_from_store", float64(m.recoveredServed.Load()))
		emit("recovery.quarantined", float64(m.recoveredQuarantined.Load()))
		emit("journal.appends", float64(m.journal.appendCount()))
		emit("journal.corrupt_skipped", float64(m.journalSkipped.Load()))
		sEntries, sHits, sMisses, sCorrupt, sWrites := m.store.Stats()
		emit("store.entries", float64(sEntries))
		emit("store.hits", float64(sHits))
		emit("store.misses", float64(sMisses))
		emit("store.corrupt", float64(sCorrupt))
		emit("store.writes", float64(sWrites))
		emit("store.errors", float64(m.storeErrors.Load()))
		emit("http.requests", float64(s.httpRequests.Load()))
		emit("http.rate_limited", float64(s.rateLimited.Load()))
		draining := 0.0
		if m.Draining() {
			draining = 1
		}
		emit("draining", draining)
	}))
	r.Source("fsmemd.audit", &s.manager.auditMetrics)
	s.registry = r
}

func (s *Server) buildRoutes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	timeout := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, s.opts.RequestTimeout, "request timed out")
	}
	mux.Handle("POST /v1/jobs", timeout(s.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", timeout(s.handleStatus))
	mux.Handle("GET /v1/jobs/{id}/result", timeout(s.handleResult))
	mux.Handle("GET /v1/jobs/{id}/trace", timeout(s.handleTrace))
	mux.Handle("DELETE /v1/jobs/{id}", timeout(s.handleCancel))
	// SSE must flush incrementally; TimeoutHandler would buffer it.
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux = mux
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain gracefully stops the job layer: new submissions 503, queued
// and in-flight jobs finish (bounded by DrainTimeout), then workers
// exit.
func (s *Server) Drain(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, s.opts.DrainTimeout)
	defer cancel()
	return s.manager.Drain(dctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, ec string, format string, args ...any) {
	writeJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...), Code: ec})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.manager.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WritePrometheus(w, s.registry.Snapshot())
}

// queueRetryAfter estimates how long a rejected client should back off
// before the queue has drained enough to accept it: the current depth
// spread across the worker pool, clamped to [1s, 30s]. It is a load
// signal, not a promise — the client's jittered backoff rides on it.
func (s *Server) queueRetryAfter() time.Duration {
	d := time.Duration(1+s.manager.QueueDepth()/s.manager.workers) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// setRetryAfter stamps the Retry-After header in whole seconds.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.bucket.allow() {
		s.rateLimited.Add(1)
		setRetryAfter(w, s.bucket.retryAfter())
		writeError(w, http.StatusTooManyRequests, "rate_limited", "submission rate limit exceeded")
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding job request: %v", err)
		return
	}
	job, created, err := s.manager.Submit(req)
	switch {
	case errors.Is(err, errDraining):
		setRetryAfter(w, 2*time.Second) // a replacement process may be recovering
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	case errors.Is(err, errQueueFull):
		setRetryAfter(w, s.queueRetryAfter())
		writeError(w, http.StatusTooManyRequests, "queue_full", "job queue is full")
		return
	case fsmerr.CodeOf(err) == fsmerr.CodeStorage:
		writeError(w, http.StatusInternalServerError, string(fsmerr.CodeStorage), "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, string(fsmerr.CodeOf(err)), "%v", err)
		return
	}
	status := job.Status()
	code := http.StatusAccepted
	if status.State.Terminal() || !created {
		code = http.StatusOK
	}
	writeJSON(w, code, status)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	status := j.Status()
	entry, done := j.Result()
	if !done {
		if status.State == StateFailed || status.State == StateCanceled {
			writeError(w, http.StatusConflict, status.ErrorCode, "job %s: %s", status.State, status.Error)
			return
		}
		writeError(w, http.StatusConflict, "not_done", "job is %s; poll status or stream /events", status.State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(entry.result)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	entry, done := j.Result()
	if !done {
		writeError(w, http.StatusConflict, "not_done", "job has not completed")
		return
	}
	if entry.trace == nil {
		writeError(w, http.StatusNotFound, "no_trace", "job was not observed: submit with \"observe\": true")
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteJSONL(w, entry.trace)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChrome(w, entry.trace)
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "unknown trace format %q (jsonl or chrome)", format)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.manager.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's progress log as server-sent events,
// replaying history first, until the job reaches a terminal state or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for cursor := 0; ; cursor++ {
		ev, ok := j.events.next(r.Context(), cursor)
		if !ok {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Phase, data)
		flusher.Flush()
	}
}

// Serve listens on o.Addr and runs the daemon until ctx is canceled,
// then drains gracefully: readiness flips to 503, in-flight and queued
// jobs finish (bounded by DrainTimeout), and the HTTP server shuts
// down. A clean drain returns nil.
func Serve(ctx context.Context, o Options) error {
	s, err := New(o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Serve on an existing listener (ownership transfers;
// the listener is closed on return).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.WithoutCancel(ctx) },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Drain first — a completed submission is never dropped — then stop
	// the HTTP listener, giving streaming clients a moment to read
	// their terminal events.
	drainErr := s.Drain(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	return drainErr
}
