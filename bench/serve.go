package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/audit"
	"fsmem/internal/config"
	"fsmem/internal/parallel"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
	"fsmem/internal/sim"
)

// The serve workload's traffic: an open loop at a fixed rate, set so the
// daemon's two executors are about a third busy. Each block of four jobs
// holds two cold simulations (fresh seeds), one repeat of a simulation due
// at least a second earlier (a result-cache hit) and one small audit. p50
// latency then falls inside the cold-simulation mode and the tail inside
// the audit mode.
const (
	serveInterval = 100 * time.Millisecond // 10 jobs/s
	servePoll     = 2 * time.Millisecond   // status poll period per in-flight job
	serveConns    = 2                      // HTTP connections, at most
	repeatAge     = time.Second
	serveGolden   = 8 // leading jobs bench/golden.json covers
)

type jobKind int

const (
	kindCold jobKind = iota
	kindRepeat
	kindAudit
)

func (k jobKind) String() string {
	return [...]string{"simulate", "repeat", "audit"}[k]
}

// job is one scheduled submission and what happened to it.
type job struct {
	idx    int
	kind   jobKind
	req    server.JobRequest
	target int // the job a repeat resubmits (warm-up jobs are negative)

	due, sent, submitted time.Time
	running, doneSeen    time.Time // first poll that saw each state
	finished             time.Time // result bytes received
	id                   string
	cacheHit             bool
	doc                  []byte
	err                  error
}

type serveSession struct {
	seed uint64
	srv  *server.Server
	ts   *httptest.Server
	hc   *http.Client
	c    *client.Client
	next int
	jobs map[int]*job // every job submitted, warm-up ones included
	last []*job       // the jobs of the most recent window
}

// Warm-up job indexes.
const (
	warmSim   = -1
	warmAudit = -2
)

func openServe(ctx context.Context, seed uint64, _ bool) (session, error) {
	srv, err := server.New(server.Options{
		Workers:    2,
		GridShards: 1,   // one thread of work per job
		RatePerSec: 1e9, // the rate limiter stays out of the way
		Burst:      1e9,
	})
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: seed, srv: srv, jobs: map[int]*job{}}
	s.ts = httptest.NewServer(srv.Handler())
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	s.c = client.New(s.ts.URL, s.hc)
	if err := s.c.Ready(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	for _, i := range []int{warmSim, warmAudit} {
		j := s.job(i)
		if err := s.runOne(ctx, j); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s job: %w", j.kind, err)
		}
	}
	return s, nil
}

// job builds scheduled job i (a pure function of the seed and i) and
// remembers it.
func (s *serveSession) job(i int) *job {
	if j, ok := s.jobs[i]; ok {
		return j
	}
	j := &job{idx: i, kind: kindOf(i)}
	switch j.kind {
	case kindCold:
		j.req = simJob(unitSeed(s.seed, i))
	case kindAudit:
		j.req = server.JobRequest{Kind: server.KindAudit, Audit: &server.AuditRequest{
			Scheduler: "fs_np", Cores: 4, Bits: 8, Seeds: 2, Permutations: 49, Rounds: 1,
			Seed: unitSeed(s.seed, i),
		}}
	case kindRepeat:
		j.target = repeatTarget(i)
		j.req = s.job(j.target).req
	}
	s.jobs[i] = j
	return j
}

// simJob is a cold simulation small enough to finish in tens of
// milliseconds.
func simJob(seed uint64) server.JobRequest {
	return server.JobRequest{Kind: server.KindSimulate, Simulate: &config.Experiment{
		Workload: "milc", Cores: 4, Scheduler: "baseline", Reads: 3000, Seed: seed,
	}}
}

// kindOf gives job i its place in the repeating block of four: a cold
// simulation, a repeat, a cold simulation, an audit. The order is fixed
// so that every seed offers the daemon the same overlap of long and short
// jobs; the seed picks each job's inputs. Warm-up jobs are fixed.
func kindOf(i int) jobKind {
	switch i {
	case warmSim:
		return kindCold
	case warmAudit:
		return kindAudit
	}
	return [...]jobKind{kindCold, kindRepeat, kindCold, kindAudit}[i%4]
}

// repeatTarget picks the cold simulation repeat job i resubmits: the newest
// one due at least repeatAge earlier, or the warm-up simulation when none is.
func repeatTarget(i int) int {
	for k := i - int(repeatAge/serveInterval); k >= 0; k-- {
		if kindOf(k) == kindCold {
			return k
		}
	}
	return warmSim
}

// runOne submits one job and waits for its result (set-up only).
func (s *serveSession) runOne(ctx context.Context, j *job) error {
	j.due = time.Now()
	j.sent = j.due
	s.submit(ctx, j)
	for j.err == nil && j.finished.IsZero() {
		time.Sleep(servePoll)
		s.poll(ctx, j)
	}
	return j.err
}

func (s *serveSession) submit(ctx context.Context, j *job) {
	st, err := s.c.Submit(ctx, j.req)
	j.submitted = time.Now()
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	j.id, j.cacheHit = st.ID, st.CacheHit
	if st.State == server.StateDone {
		j.doneSeen = j.submitted
	}
}

// poll advances one in-flight job: a status request until it is done, then
// the result request.
func (s *serveSession) poll(ctx context.Context, j *job) {
	if j.doneSeen.IsZero() {
		st, err := s.c.Job(ctx, j.id)
		now := time.Now()
		switch {
		case err != nil:
			j.err = fmt.Errorf("status: %w", err)
			return
		case st.State == server.StateRunning && j.running.IsZero():
			j.running = now
		case st.State == server.StateDone:
			j.doneSeen = now
		case st.State.Terminal():
			j.err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
			return
		}
		if j.doneSeen.IsZero() {
			return
		}
	}
	doc, err := s.c.Result(ctx, j.id)
	if err != nil {
		j.err = fmt.Errorf("result: %w", err)
		return
	}
	j.doc, j.finished = doc, time.Now()
}

// measure sends the next jobs of the schedule for d, each at its due time
// whether or not earlier ones finished, and waits for all of them. One
// goroutine sends; this one polls in-flight jobs every servePoll and
// fetches results, so the loop never holds more than two connections.
func (s *serveSession) measure(ctx context.Context, d time.Duration, tr *tracer) window {
	n := max(int(d/serveInterval), 4)
	jobs := make([]*job, n)
	for k := range jobs {
		jobs[k] = s.job(s.next + k)
	}
	s.next += n
	s.last = jobs

	var mu sync.Mutex
	var inflight []*job
	sent := 0
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendOnSchedule(ctx, start, serveInterval, jobs, func(j *job) {
			s.submit(ctx, j)
			mu.Lock()
			defer mu.Unlock()
			if j.err == nil {
				inflight = append(inflight, j)
			}
			sent++
		})
	}()
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	for {
		mu.Lock()
		batch := append([]*job(nil), inflight...)
		all := sent == len(jobs)
		mu.Unlock()
		if all && len(batch) == 0 {
			break
		}
		for _, j := range batch {
			s.poll(ctx, j)
		}
		mu.Lock()
		kept := inflight[:0]
		for _, j := range inflight {
			if j.err == nil && j.finished.IsZero() {
				kept = append(kept, j)
			}
		}
		inflight = kept
		mu.Unlock()
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
	wg.Wait()
	return serveWindow(jobs, tr)
}

// sendOnSchedule sends jobs[k] at start + k·interval from the calling
// goroutine, never waiting for an earlier job to finish. When a send
// blocks, the jobs that fell due meanwhile go out late, back to back, and
// their latency still counts from when they were due.
func sendOnSchedule(ctx context.Context, start time.Time, interval time.Duration, jobs []*job, send func(*job)) {
	for k, j := range jobs {
		j.due = start.Add(time.Duration(k) * interval)
		if wait := time.Until(j.due); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		j.sent = time.Now()
		send(j)
	}
}

// serveWindow accounts for a finished open-loop window: each job's latency
// from its due time to its result, and how late the generator sent it.
func serveWindow(jobs []*job, tr *tracer) window {
	w := window{attempted: len(jobs), notes: metricSet{}}
	var late []float64
	for _, j := range jobs {
		late = append(late, j.sent.Sub(j.due).Seconds())
		if j.err != nil {
			w.failed++
			w.problems = append(w.problems, fmt.Sprintf("job %d (%s): %v", j.idx, j.kind, j.err))
			continue
		}
		w.units = append(w.units, j.finished.Sub(j.due))
		recordJob(tr, j)
	}
	lat := seconds(w.units)
	if p, ok := tailPercentile(len(lat)); ok {
		w.notes.note("job_latency_s."+pctName(p), percentile(lat, p), "s", len(lat))
	}
	w.notes.note("loadgen.late_s.p95", percentile(late, 0.95), "s", len(late))
	w.notes.note("loadgen.late_s.max", percentile(late, 1), "s", len(late))
	return w
}

// recordJob turns a finished job's timestamps into spans: the job from due
// to result, split into submit, queued, running and fetch as the poller saw
// them. A state a poll never caught takes no time.
func recordJob(tr *tracer, j *job) {
	if tr == nil {
		return
	}
	running := j.running
	if running.IsZero() {
		running = j.doneSeen
	}
	root := tr.record(j.idx, 0, "job."+j.kind.String(), j.due, j.finished)
	tr.record(j.idx, root, "client.Submit", j.sent, j.submitted)
	tr.record(j.idx, root, "queued", j.submitted, running)
	tr.record(j.idx, root, "running", running, j.doneSeen)
	tr.record(j.idx, root, "client.Result", j.doneSeen, j.finished)
}

// layers breaks the traced window's job latency into where it went.
func (s *serveSession) layers(_ context.Context, m metricSet, tr *tracer, w window) error {
	var total float64
	hits := 0
	for _, j := range s.last {
		if j.err == nil {
			total += j.finished.Sub(j.due).Seconds()
		}
		if j.cacheHit {
			hits++
		}
	}
	sum := func(ds []time.Duration) (t float64) {
		for _, d := range ds {
			t += d.Seconds()
		}
		return t
	}
	m.add("server.queue_wait_frac", sum(tr.durations("queued"))/total, "frac", len(w.units))
	m.add("server.exec_frac", sum(tr.durations("running"))/total, "frac", len(w.units))
	m.add("server.cache_hit_frac", float64(hits)/float64(len(s.last)), "frac", len(s.last))
	for _, p := range []struct{ metric, span string }{
		{"server.submit_s.p50", "client.Submit"},
		{"server.queue_wait_s.p50", "queued"},
		{"server.fetch_s.p50", "client.Result"},
	} {
		ds := seconds(tr.durations(p.span))
		m.note(p.metric, median(ds), "s", len(ds))
	}
	for _, kind := range []jobKind{kindCold, kindAudit} {
		var ds []float64
		for _, j := range s.last {
			if j.kind == kind && j.err == nil && !j.running.IsZero() {
				ds = append(ds, j.doneSeen.Sub(j.running).Seconds())
			}
		}
		m.note("server.exec_s."+kind.String()+".p50", median(ds), "s", len(ds))
	}
	return nil
}

// check recomputes every distinct document the daemon served directly —
// sim.Simulate summarized like the daemon does, audit.Run marshaled like
// the daemon does — and requires byte equality.
func (s *serveSession) check(ctx context.Context) error {
	var served []*job
	for _, j := range s.jobs {
		if j.err == nil && j.doc != nil {
			served = append(served, j)
		}
	}
	want, err := s.directDocs(ctx, served)
	if err != nil {
		return err
	}
	for _, j := range served {
		if !bytes.Equal(j.doc, want[origin(j)]) {
			return fmt.Errorf("job %d (%s): served document differs from direct computation", j.idx, j.kind)
		}
	}
	return nil
}

// origin is the job whose document j must carry: a repeat carries its
// target's.
func origin(j *job) int {
	if j.kind == kindRepeat {
		return j.target
	}
	return j.idx
}

// directDocs computes, two at a time, the document each job's origin
// should have.
func (s *serveSession) directDocs(ctx context.Context, jobs []*job) (map[int][]byte, error) {
	seen := map[int]bool{}
	var cells []parallel.Cell[[]byte]
	var keys []int
	for _, j := range jobs {
		o := origin(j)
		if seen[o] {
			continue
		}
		seen[o] = true
		req := s.job(o).req
		keys = append(keys, o)
		cells = append(cells, parallel.Cell[[]byte]{
			Key: fmt.Sprint(o),
			Run: func(ctx context.Context) ([]byte, error) { return directDoc(ctx, req) },
		})
	}
	docs, err := parallel.Map(ctx, 2, cells)
	if err != nil {
		return nil, err
	}
	out := map[int][]byte{}
	for k, o := range keys {
		out[o] = docs[k]
	}
	return out, nil
}

// directDoc computes a job's result document without the daemon.
func directDoc(ctx context.Context, req server.JobRequest) ([]byte, error) {
	switch req.Kind {
	case server.KindSimulate:
		cfg, err := req.Simulate.ToSimConfig()
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		// The daemon's document: the summary as JSON plus a newline.
		b, err := json.Marshal(server.Summarize(cfg, res))
		return append(b, '\n'), err
	case server.KindAudit:
		a := req.Audit
		k, ok := config.SchedulerByName(a.Scheduler)
		if !ok {
			return nil, fmt.Errorf("unknown scheduler %q", a.Scheduler)
		}
		cert, err := audit.Run(ctx, k, audit.Options{
			Domains: a.Cores, Bits: a.Bits, WindowBusCycles: audit.DefaultWindow,
			Seed: a.Seed, Seeds: a.Seeds, Permutations: a.Permutations, Rounds: a.Rounds,
			Workers: 1, Channels: 1, Routing: addr.RouteColored,
		})
		if err != nil {
			return nil, err
		}
		return audit.MarshalCertificate(cert)
	}
	return nil, fmt.Errorf("no direct computation for %q jobs", req.Kind)
}

func (s *serveSession) goldenHash(ctx context.Context) (string, error) {
	var jobs []*job
	for i := 0; i < serveGolden; i++ {
		jobs = append(jobs, s.job(i))
	}
	docs, err := s.directDocs(ctx, jobs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, j := range jobs {
		h.Write(docs[origin(j)])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// replayConfig is the cold simulation the daemon serves.
func (s *serveSession) replayConfig() sim.Config {
	cfg, _ := simJob(unitSeed(s.seed, replayUnit)).Simulate.ToSimConfig() // a fixed, valid config
	return cfg
}

// close drains the daemon and shuts its listener.
func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Drain(ctx) // every job has finished; nothing to wait for
	s.hc.CloseIdleConnections()
	s.ts.Close()
}
