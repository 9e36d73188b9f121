package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

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

// Server is the daemon: the job manager behind the shared job API, plus
// the routes only the daemon serves (rate-limited submission, /trace,
// /events, DELETE).
type Server struct {
	opts    Options
	manager *Manager
	bucket  *tokenBucket
	api     *API

	rateLimited atomic.Int64
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
	s.api = NewAPI(m.jobs, m, s.buildMetrics(), o.RequestTimeout, o.DrainTimeout)
	s.api.limit = s.allowSubmit
	s.api.Handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.api.Handle("DELETE /v1/jobs/{id}", s.handleCancel)
	// SSE must flush incrementally; TimeoutHandler would buffer it.
	s.api.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return s, nil
}

// buildMetrics registers the server counters alongside the obs
// conventions: dotted names, sanitized at exposition time. Sources read
// atomics, so the per-scrape snapshot is safe against concurrent
// request handling.
func (s *Server) buildMetrics() *obs.Registry {
	r := obs.NewRegistry()
	r.Source("fsmemd", obs.SourceFunc(func(emit func(string, float64)) {
		m := s.manager
		emit("jobs.submitted", float64(m.jobs.Submitted()))
		emit("jobs.executed", float64(m.executed.Load()))
		emit("jobs.completed", float64(m.completed.Load()))
		emit("jobs.failed", float64(m.failed.Load()))
		emit("jobs.canceled", float64(m.canceled.Load()))
		emit("jobs.in_flight", float64(m.inFlight.Load()))
		emit("queue.depth", float64(m.QueueDepth()))
		entries, hits, misses := m.jobs.CacheStats()
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
		emit("http.requests", float64(s.api.Requests()))
		emit("http.rate_limited", float64(s.rateLimited.Load()))
		draining := 0.0
		if m.jobs.Draining() {
			draining = 1
		}
		emit("draining", draining)
	}))
	r.Source("fsmemd.audit", &s.manager.auditMetrics)
	return r
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.api.Handler() }

// Drain gracefully stops the job layer: new submissions 503, queued
// and in-flight jobs finish (bounded by DrainTimeout), then workers
// exit.
func (s *Server) Drain(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, s.opts.DrainTimeout)
	defer cancel()
	return s.manager.Drain(dctx)
}

// allowSubmit spends a rate-limit token, answering 429 rate_limited
// when none is left.
func (s *Server) allowSubmit(w http.ResponseWriter) bool {
	if s.bucket.allow() {
		return true
	}
	s.rateLimited.Add(1)
	setRetryAfter(w, s.bucket.retryAfter())
	WriteError(w, http.StatusTooManyRequests, "rate_limited", "submission rate limit exceeded")
	return false
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.api.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	entry, done := j.output()
	if !done {
		refuseOutput(w, j, st)
		return
	}
	if entry.trace == nil {
		WriteError(w, http.StatusNotFound, "no_trace", "job was not observed: submit with \"observe\": true")
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
		WriteError(w, http.StatusBadRequest, "bad_request", "unknown trace format %q (jsonl or chrome)", format)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.api.job(w, r)
	if !ok {
		return
	}
	s.manager.Cancel(j.ID)
	writeStatus(w, http.StatusOK, j, j.Status())
}

// handleEvents streams the job's progress log as server-sent events,
// replaying history first, until the job reaches a terminal state or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.api.job(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		WriteError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
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
		j.noteServed(ev.State)
	}
}

// Serve listens on o.Addr and runs the daemon until ctx is canceled,
// then drains gracefully (see API.ServeListener). A clean drain
// returns nil.
func Serve(ctx context.Context, o Options) error {
	s, err := New(o)
	if err != nil {
		return err
	}
	return s.api.ListenAndServe(ctx, s.opts.Addr)
}

// ServeListener is Serve on an existing listener (ownership transfers;
// the listener is closed on return).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	return s.api.ServeListener(ctx, ln)
}
