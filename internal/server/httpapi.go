package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/fsmerr"
	"fsmem/internal/obs"
)

// Frontend is the role behind the job API: the daemon's Manager or the
// cluster Coordinator.
type Frontend interface {
	// Submit runs the table's shared submission steps and the role's
	// admission step.
	Submit(JobRequest) (*Job, bool, error)
	// Drain stops intake and waits for the accepted jobs; past ctx it
	// hard-cancels the stragglers.
	Drain(context.Context) error
	// QueueRetryAfter is the backoff hint a queue_full rejection carries.
	QueueRetryAfter() time.Duration
}

// API is the HTTP job API both roles serve: /healthz, /readyz,
// /metrics, POST /v1/jobs, GET /v1/jobs/{id} and its /result, plus
// whatever routes the role adds with Handle. Both roles therefore
// answer with the same status codes and the same error envelope by
// construction.
type API struct {
	jobs         *Table
	fe           Frontend
	registry     *obs.Registry
	timeout      time.Duration // per non-streaming request
	drainTimeout time.Duration
	mux          *http.ServeMux
	requests     atomic.Int64

	// limit, when set, runs before a submission is decoded and answers
	// the refusal itself (the daemon's rate limit).
	limit func(http.ResponseWriter) bool
}

// NewAPI builds the job API over jobs, admitting through fe and
// exposing registry on /metrics. Non-streaming handlers are bounded by
// requestTimeout, and the graceful drain by drainTimeout.
func NewAPI(jobs *Table, fe Frontend, registry *obs.Registry, requestTimeout, drainTimeout time.Duration) *API {
	a := &API{jobs: jobs, fe: fe, registry: registry, timeout: requestTimeout, drainTimeout: drainTimeout, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /healthz", a.handleHealthz)
	a.mux.HandleFunc("GET /readyz", a.handleReadyz)
	a.mux.HandleFunc("GET /metrics", a.handleMetrics)
	a.Handle("POST /v1/jobs", a.handleSubmit)
	a.Handle("GET /v1/jobs/{id}", a.handleStatus)
	a.Handle("GET /v1/jobs/{id}/result", a.handleResult)
	return a
}

// Handle adds a role's route, bounded by the request timeout.
func (a *API) Handle(pattern string, h http.HandlerFunc) {
	a.mux.Handle(pattern, http.TimeoutHandler(h, a.timeout, "request timed out"))
}

// Handler returns the API's HTTP handler.
func (a *API) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.requests.Add(1)
		a.mux.ServeHTTP(w, r)
	})
}

// Requests counts the HTTP requests the handler has seen.
func (a *API) Requests() int64 { return a.requests.Load() }

// WriteJSON answers with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with the ErrorBody envelope.
func WriteError(w http.ResponseWriter, code int, ec string, format string, args ...any) {
	WriteJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...), Code: ec})
}

// setRetryAfter stamps the Retry-After header in whole seconds.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// writeStatus answers with the status document st of job j.
func writeStatus(w http.ResponseWriter, code int, j *Job, st JobStatus) {
	WriteJSON(w, code, st)
	j.noteServed(st.State)
}

// refuseOutput answers a request for the output of a job that has
// none: 409 with the job's own error code once it is terminal, 409
// not_done while it is live. st must be read before the output was
// found missing, so a job finishing in between still reads as live.
func refuseOutput(w http.ResponseWriter, j *Job, st JobStatus) {
	if st.State.Terminal() {
		WriteError(w, http.StatusConflict, st.ErrorCode, "job %s: %s", st.State, st.Error)
		j.noteServed(st.State)
		return
	}
	WriteError(w, http.StatusConflict, "not_done", "job is %s; poll status", st.State)
}

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (a *API) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if a.jobs.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WritePrometheus(w, a.registry.Snapshot())
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if a.limit != nil && !a.limit(w) {
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "decoding job request: %v", err)
		return
	}
	j, created, err := a.fe.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		setRetryAfter(w, 2*time.Second) // a replacement process may be recovering
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w, a.fe.QueueRetryAfter())
		WriteError(w, http.StatusTooManyRequests, "queue_full", "job queue is full")
		return
	case fsmerr.CodeOf(err) == fsmerr.CodeStorage:
		WriteError(w, http.StatusInternalServerError, string(fsmerr.CodeStorage), "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, string(fsmerr.CodeOf(err)), "%v", err)
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State.Terminal() || !created {
		code = http.StatusOK
	}
	writeStatus(w, code, j, st)
}

// job resolves the request's {id}, answering 404 when it is unknown.
func (a *API) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := a.jobs.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := a.job(w, r); ok {
		writeStatus(w, http.StatusOK, j, j.Status())
	}
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	doc, done := j.Result()
	if !done {
		refuseOutput(w, j, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
	j.noteServed(StateDone)
}

// ListenAndServe listens on addr and runs ServeListener.
func (a *API) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return a.ServeListener(ctx, ln)
}

// ServeListener serves the API on ln until ctx is canceled, then drains
// gracefully: readiness flips to 503, the accepted jobs finish (bounded
// by the drain timeout), and the API keeps answering until every
// job that was live when intake stopped has had its terminal state
// served once, so its last poller is not refused. Then the HTTP server
// shuts down. A clean drain returns nil. Ownership of ln transfers; it
// is closed on return.
func (a *API) ServeListener(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           a.Handler(),
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
	dctx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
	defer cancel()
	drainErr := a.fe.Drain(dctx)
	a.jobs.linger()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	return drainErr
}

// WaitDrained waits for wg. If ctx ends first it calls cancel to
// hard-cancel the stragglers, waits them out, and returns ctx's error.
func WaitDrained(ctx context.Context, wg *sync.WaitGroup, cancel context.CancelFunc) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cancel()
		<-done
		return ctx.Err()
	}
}
