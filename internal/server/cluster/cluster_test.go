package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsmem"
	"fsmem/internal/config"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
)

// startWorker boots a plain single-node daemon behind httptest and
// returns its base URL — which doubles as its fleet identity.
func startWorker(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2, RatePerSec: 100_000})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return ts.URL
}

// startCoordinator fronts the given workers with a coordinator behind
// httptest and returns it plus a typed client — the same client the
// single-node API tests use, because the wire contract is shared.
func startCoordinator(t *testing.T, workers []string, tweak func(*Options)) (*Coordinator, *client.Client) {
	t.Helper()
	o := Options{
		Workers:           workers,
		HeartbeatInterval: 15 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&o)
	}
	c, err := New(o)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(dctx)
		ts.Close()
	})
	return c, client.New(ts.URL, ts.Client())
}

func simReq(seed uint64, reads int64) server.JobRequest {
	e := config.Default()
	e.Workload = "mcf"
	e.Scheduler = "fs_bp"
	e.Cores = 2
	e.Reads = reads
	e.Seed = seed
	return server.JobRequest{Kind: server.KindSimulate, Simulate: &e}
}

// directBytes computes the result document a single-node daemon would
// serve for req, straight from the simulator.
func directBytes(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	cfg, err := req.Simulate.ToSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fsmem.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(server.Summarize(cfg, res))
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

func runJob(t *testing.T, cl *client.Client, req server.JobRequest) (server.JobStatus, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = cl.Wait(ctx, st.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s ended %s (%s)", st.ID, st.State, st.Error)
	}
	raw, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return st, raw
}

// TestClusterResultsMatchDirectSimulate pins the tentpole contract: a
// job routed through the coordinator returns bytes identical to a
// direct in-process simulation, jobs spread across the fleet, and a
// resubmission is re-served from the coordinator's local cache.
func TestClusterResultsMatchDirectSimulate(t *testing.T) {
	workers := []string{startWorker(t), startWorker(t), startWorker(t)}
	c, cl := startCoordinator(t, workers, nil)

	const n = 12
	used := map[string]bool{}
	for seed := uint64(1); seed <= n; seed++ {
		req := simReq(seed, 300)
		st, raw := runJob(t, cl, req)
		if st.Worker == "" {
			t.Fatalf("job %s has no worker attribution", st.ID)
		}
		used[st.Worker] = true
		if want := directBytes(t, req); !bytes.Equal(raw, want) {
			t.Fatalf("seed %d: coordinator bytes differ from direct simulation\ncluster: %s\ndirect:  %s", seed, raw, want)
		}
	}
	if len(used) < 2 {
		t.Fatalf("12 jobs landed on %d worker(s); expected consistent hashing to spread them", len(used))
	}

	// Resubmission: answered locally, cache-hit flagged, same bytes.
	ctx := context.Background()
	req := simReq(1, 300)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() || !st.CacheHit {
		t.Fatalf("resubmission not a coordinator cache hit: %+v", st)
	}
	raw, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, req); !bytes.Equal(raw, want) {
		t.Fatal("cached result differs from direct simulation bytes")
	}

	cs := c.Status()
	if cs.Completed != n || cs.Failed != 0 {
		t.Fatalf("fleet counters: completed=%d failed=%d, want %d/0", cs.Completed, cs.Failed, n)
	}
	if cs.CacheHits < 1 {
		t.Fatalf("cache hits %d, want >= 1", cs.CacheHits)
	}
}

// ownedBy returns up to n distinct seeds whose job IDs the ring places
// on the given worker first.
func ownedBy(t *testing.T, c *Coordinator, worker string, n int) []uint64 {
	t.Helper()
	var seeds []uint64
	for seed := uint64(1); seed < 10_000 && len(seeds) < n; seed++ {
		req := simReq(seed, 300)
		id, _, err := server.Canonicalize(&req)
		if err != nil {
			t.Fatal(err)
		}
		if order := c.ringOrder(id); len(order) > 0 && order[0] == worker {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < n {
		t.Fatalf("found only %d/%d seeds owned by %s", len(seeds), n, worker)
	}
	return seeds
}

// TestClusterFailoverToNextWorker pins transparent retry: jobs whose
// ring owner is dead complete on the next member — byte-identically —
// the dead worker is demoted by the heartbeat, and later jobs skip it
// without burning a retry.
func TestClusterFailoverToNextWorker(t *testing.T) {
	live := startWorker(t)
	deadTS := httptest.NewServer(http.NotFoundHandler())
	dead := deadTS.URL
	deadTS.Close() // connection refused from the first dial

	// A deliberately slow heartbeat (demotion after ~1s) so every job
	// below exercises the retry path before the dead worker is demoted.
	c, cl := startCoordinator(t, []string{live, dead}, func(o *Options) {
		o.HeartbeatInterval = 500 * time.Millisecond
		o.FailAfter = 2
	})

	seeds := ownedBy(t, c, dead, 4)
	for _, seed := range seeds {
		req := simReq(seed, 300)
		st, raw := runJob(t, cl, req)
		if st.Worker != live {
			t.Fatalf("seed %d completed on %q, want failover to %q", seed, st.Worker, live)
		}
		if want := directBytes(t, req); !bytes.Equal(raw, want) {
			t.Fatalf("seed %d: failover result differs from direct simulation", seed)
		}
	}
	cs := c.Status()
	if cs.Retries < int64(len(seeds)) {
		t.Fatalf("retries=%d, want >= %d (one per dead-owned job)", cs.Retries, len(seeds))
	}
	if cs.Failed != 0 {
		t.Fatalf("failed=%d, want 0 — no job may be lost to a dead worker", cs.Failed)
	}

	// The heartbeat demotes the dead worker; once it does, routing skips
	// it entirely.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, ok := c.Members().Get(dead); ok && !m.Healthy() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead worker never demoted by heartbeat")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := c.Status().Retries
	extra := ownedBy(t, c, dead, len(seeds)+1)[len(seeds)]
	if st, _ := runJob(t, cl, simReq(extra, 300)); st.Worker != live {
		t.Fatalf("post-demotion job ran on %q, want %q", st.Worker, live)
	}
	if after := c.Status().Retries; after != before {
		t.Fatalf("post-demotion dispatch burned %d retries; unhealthy workers must be skipped outright", after-before)
	}
}

// TestClusterStealsFromUnhealthyWorker pins the work-stealing path: a
// worker that accepts jobs and then hangs has its parked work aborted —
// via the health-epoch cancellation, not an HTTP timeout — and re-run
// on a healthy member with zero lost jobs.
func TestClusterStealsFromUnhealthyWorker(t *testing.T) {
	live := startWorker(t)

	// A worker that heartbeats fine until flipped, and never answers a
	// submission — jobs park on it until the epoch is canceled. The body
	// must be drained before blocking: the net/http server only notices a
	// client disconnect (and cancels r.Context()) once the request body
	// has been consumed.
	var sick atomic.Bool
	stop := make(chan struct{})
	victimTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if sick.Load() {
				http.Error(w, "sick", http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, "ok")
			return
		}
		io.Copy(io.Discard, r.Body)
		select { // hang every job endpoint
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(victimTS.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: unblock handlers before Close waits on them
	victim := victimTS.URL

	c, cl := startCoordinator(t, []string{live, victim}, func(o *Options) {
		o.Window = 1 // second victim-owned job must queue behind the first
		o.FailAfter = 2
	})

	seeds := ownedBy(t, c, victim, 2)
	type res struct {
		st  server.JobStatus
		raw []byte
	}
	results := make(chan res, len(seeds))
	for _, seed := range seeds {
		go func(seed uint64) {
			st, raw := runJob(t, cl, simReq(seed, 300))
			results <- res{st, raw}
		}(seed)
	}

	// Let both jobs park on the victim (one in flight, one waiting on
	// its window), then make it flunk heartbeats.
	time.Sleep(50 * time.Millisecond)
	sick.Store(true)

	for range seeds {
		r := <-results
		if r.st.Worker != live {
			t.Fatalf("stolen job completed on %q, want %q", r.st.Worker, live)
		}
	}
	cs := c.Status()
	if cs.Failed != 0 {
		t.Fatalf("failed=%d, want 0 — stealing must not lose jobs", cs.Failed)
	}
	if cs.Steals < 1 {
		t.Fatalf("steals=%d, want >= 1 — re-routes off the unhealthy worker must be counted", cs.Steals)
	}
	for _, seed := range seeds {
		req := simReq(seed, 300)
		id, _, err := server.Canonicalize(&req)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := c.Get(id)
		if !ok {
			t.Fatalf("seed %d: job missing after steal", seed)
		}
		raw, _ := j.Result()
		if want := directBytes(t, req); !bytes.Equal(raw, want) {
			t.Fatalf("seed %d: stolen job's bytes differ from direct simulation", seed)
		}
	}
}

// TestClusterVerifySampling pins the distributed integrity check: with
// a 100% sample every completion is re-executed on a second worker, and
// byte-determinism makes every comparison come back identical.
func TestClusterVerifySampling(t *testing.T) {
	workers := []string{startWorker(t), startWorker(t)}
	c, cl := startCoordinator(t, workers, func(o *Options) {
		o.VerifySample = 1
	})

	const n = 5
	for seed := uint64(1); seed <= n; seed++ {
		runJob(t, cl, simReq(seed, 300))
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		cs := c.Status()
		if cs.VerifyOK == n {
			if cs.VerifySampled != n || cs.VerifyMismatches != 0 {
				t.Fatalf("verification counters: %+v", cs)
			}
			// Pin the exposition names the CI cluster-smoke job greps.
			metrics, err := cl.Metrics(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("fsmemd_cluster_verify_ok %d\n", n),
				"fsmemd_cluster_verify_mismatches 0\n",
				"fsmemd_cluster_workers_registered 2\n",
			} {
				if !strings.Contains(metrics, want) {
					t.Fatalf("/metrics missing %q:\n%s", want, metrics)
				}
			}
			return
		}
		if cs.VerifyMismatches > 0 {
			t.Fatalf("byte-identity verification found a mismatch: %+v", cs)
		}
		if time.Now().After(deadline) {
			t.Fatalf("verification never finished: %+v", cs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterSingleflightAndDraining pins admission control: duplicate
// submissions join the same job record, and a draining coordinator
// refuses new work.
func TestClusterSingleflightAndDraining(t *testing.T) {
	c, _ := startCoordinator(t, []string{startWorker(t)}, nil)

	req := simReq(42, 300)
	j1, created1, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, created2, err := c.Submit(simReq(42, 300))
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("duplicate submission produced a second job record")
	}
	if !created1 || created2 {
		t.Fatalf("created flags %v/%v, want true/false", created1, created2)
	}
	<-j1.Done()

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := c.Submit(simReq(43, 300)); err != server.ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

// TestClusterRegister pins dynamic membership: a worker joining through
// the register endpoint (what fsmemd -join calls) becomes routable, and
// registration is idempotent.
func TestClusterRegister(t *testing.T) {
	first := startWorker(t)
	c, cl := startCoordinator(t, []string{first}, nil)

	second := startWorker(t)
	ctx := context.Background()
	if err := cl.Register(ctx, second); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := cl.Register(ctx, second); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	cs, err := cl.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Workers) != 2 {
		t.Fatalf("fleet has %d workers after register, want 2", len(cs.Workers))
	}

	// The joined worker owns part of the ring and serves jobs.
	seeds := ownedBy(t, c, second, 1)
	if st, _ := runJob(t, cl, simReq(seeds[0], 300)); st.Worker != second {
		t.Fatalf("job owned by joined worker ran on %q", st.Worker)
	}
}
