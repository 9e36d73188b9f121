package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fsmem"
	"fsmem/internal/addr"
	"fsmem/internal/config"
	"fsmem/internal/experiments"
	"fsmem/internal/leakage"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// startServer runs the daemon on an httptest listener and returns a
// typed client for it. The manager is drained at test end.
func startServer(t *testing.T, o server.Options) (*client.Client, *server.Server) {
	t.Helper()
	if o.RatePerSec == 0 {
		o.RatePerSec = 100_000 // tests that don't exercise limiting never hit it
	}
	s, err := server.New(o)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(context.Background())
		ts.Close()
	})
	return client.New(ts.URL, ts.Client()), s
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

// TestAPIResultMatchesDirectSimulate pins the core contract: the result
// document served for a job is byte-identical to what a direct
// fsmem.Simulate caller computes from the same config.
func TestAPIResultMatchesDirectSimulate(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 2})
	ctx := context.Background()

	req := simReq(7, 400)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

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
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("server result differs from direct simulation:\nserver: %s\ndirect: %s", got, want)
	}

	// Resubmission is answered from cache with the same bytes.
	st2, err := cl.Submit(ctx, simReq(7, 400))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("identical request got a new job: %s vs %s", st2.ID, st.ID)
	}
	if !st2.State.Terminal() || !st2.CacheHit {
		t.Fatalf("resubmission not a cache hit: %+v", st2)
	}
	again, err := cl.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("cached result differs from the original bytes")
	}
}

// TestAPIConcurrentDedup pins singleflight end to end: N concurrent
// identical POSTs produce exactly one simulation (read back from
// /metrics) and byte-identical results.
func TestAPIConcurrentDedup(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 4})
	ctx := context.Background()

	const n = 12
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cl.Submit(ctx, simReq(11, 300))
			if err == nil && !st.State.Terminal() {
				st, err = cl.Wait(ctx, st.ID, 5*time.Millisecond)
			}
			if err == nil {
				results[i], err = cl.Result(ctx, st.ID)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "fsmemd_jobs_executed 1\n") {
		t.Fatalf("want exactly one executed simulation, metrics:\n%s", metrics)
	}
}

// TestAPIEventsAndTrace exercises the SSE stream and the trace
// re-export for an observed job.
func TestAPIEventsAndTrace(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 2})
	ctx := context.Background()

	req := simReq(13, 300)
	req.Observe = true
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	err = cl.Events(ctx, st.ID, func(ev server.JobEvent) bool {
		phases = append(phases, ev.Phase)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) == 0 || phases[len(phases)-1] != string(server.StateDone) {
		t.Fatalf("event phases %v must end in done", phases)
	}
	for i, want := range []string{"queued", "running"} {
		if i < len(phases)-1 && phases[i] != want {
			t.Fatalf("event phases %v, want prefix [queued running ...]", phases)
		}
	}

	var jsonl bytes.Buffer
	if err := cl.Trace(ctx, st.ID, "jsonl", &jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("empty JSONL trace for an observed job")
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("JSONL line 0 is not JSON: %v", err)
	}
	var chrome bytes.Buffer
	if err := cl.Trace(ctx, st.ID, "chrome", &chrome); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}

	// An unobserved job has no trace: 404 no_trace.
	st2, err := cl.Submit(ctx, simReq(14, 300))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = cl.Wait(ctx, st2.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	err = cl.Trace(ctx, st2.ID, "jsonl", &bytes.Buffer{})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != "no_trace" {
		t.Fatalf("trace of unobserved job: %v, want 404 no_trace", err)
	}
}

func TestAPIErrors(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 1})
	ctx := context.Background()

	var ae *client.APIError
	_, err := cl.Job(ctx, "jdeadbeef")
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v, want 404", err)
	}
	_, err = cl.Submit(ctx, server.JobRequest{Kind: "nope"})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %v, want 400", err)
	}
	bad := simReq(1, 100)
	bad.Simulate.Scheduler = "nope"
	_, err = cl.Submit(ctx, bad)
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scheduler: %v, want 400", err)
	}
}

func TestAPIRateLimit(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 1, RatePerSec: 0.001, Burst: 1})
	ctx := context.Background()
	if _, err := cl.Submit(ctx, simReq(1, 100)); err != nil {
		t.Fatalf("first submission should spend the burst token: %v", err)
	}
	_, err := cl.Submit(ctx, simReq(2, 100))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("over-rate submission: %v, want 429 rate_limited", err)
	}
}

// TestAPIDrain pins the graceful-drain contract over HTTP: readiness
// flips to 503, new submissions get 503 draining, and the already
// accepted job still completes with its result available.
func TestAPIDrain(t *testing.T) {
	cl, s := startServer(t, server.Options{Workers: 1})
	ctx := context.Background()

	st, err := cl.Submit(ctx, simReq(17, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// Draining is flagged synchronously at drain start; readiness must
	// flip even while the accepted job is still running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cl.Ready(ctx); err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("readyz during drain: %v, want 503", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = cl.Submit(ctx, simReq(18, 100))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || ae.Code != "draining" {
		t.Fatalf("submit during drain: %v, want 503 draining", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("accepted job was dropped by drain: %s (%s)", final.State, final.Error)
	}
	if _, err := cl.Result(ctx, st.ID); err != nil {
		t.Fatalf("result after drain: %v", err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz after drain: %v", err)
	}
}

// TestAPIFiguresJob runs a tiny figures job end to end: progress events
// stream from the runner's per-cell callbacks, and the result document is
// byte-identical to the tables experiments computes directly.
func TestAPIFiguresJob(t *testing.T) {
	if testing.Short() {
		t.Skip("figures grid is slow")
	}
	cl, _ := startServer(t, server.Options{Workers: 2, GridShards: 2})
	ctx := context.Background()
	st, err := cl.Submit(ctx, server.JobRequest{
		Kind:    server.KindFigures,
		Figures: &server.FiguresRequest{Figures: []string{"3", "4"}, Cores: 2, Reads: 400, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	err = cl.Events(ctx, st.ID, func(ev server.JobEvent) bool {
		if ev.Phase == "progress" {
			progress++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("figures job streamed no per-cell progress events")
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	r := experiments.NewRunner(experiments.Settings{Cores: 2, TargetReads: 400, Seed: 5})
	fig3, err := experiments.Figure3(r)
	if err != nil {
		t.Fatal(err)
	}
	fig4, _, err := experiments.Figure4(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(server.FiguresResult{Tables: []experiments.Table{fig3, fig4}})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("figures document differs from direct tables:\nserver: %s\ndirect: %s", got, want)
	}
}

// TestAPILeakageJobMatchesDirect pins the leakage document: for the
// default scheduler pair and for one named scheduler on an interleaved
// fabric, the served bytes equal the document built from direct
// leakage.CollectProfile runs against idle and streaming co-runners.
func TestAPILeakageJobMatchesDirect(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 2, GridShards: 2})
	ctx := context.Background()
	cases := []struct {
		req      server.LeakageRequest
		kinds    []sim.SchedulerKind
		channels int
		routing  addr.Routing
	}{
		{server.LeakageRequest{Cores: 4, Samples: 3, Seed: 9},
			[]sim.SchedulerKind{sim.Baseline, sim.FSRankPart}, 1, addr.RouteColored},
		{server.LeakageRequest{Scheduler: "fs_np", Cores: 4, Samples: 3, Seed: 9, Channels: 2, Routing: "interleaved"},
			[]sim.SchedulerKind{sim.FSNoPart}, 2, addr.RouteInterleaved},
	}
	attacker, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		req := c.req
		st, err := cl.Submit(ctx, server.JobRequest{Kind: server.KindLeakage, Leakage: &req})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("leakage job state %s (%s)", st.State, st.Error)
		}
		got, err := cl.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}

		doc := server.LeakageResult{Attacker: attacker.Name}
		for _, k := range c.kinds {
			var profiles [2]leakage.Profile
			for i, co := range []workload.Profile{workload.Synthetic("idle", 0.01), workload.Synthetic("streaming", 45)} {
				profiles[i], err = leakage.CollectProfile(k, attacker, co, req.Cores, 10_000, req.Samples*10_000,
					req.Seed, c.channels, c.routing)
				if err != nil {
					t.Fatal(err)
				}
			}
			quiet, loud := profiles[0], profiles[1]
			div, err := leakage.Divergence(quiet, loud)
			if err != nil {
				t.Fatal(err)
			}
			doc.Rows = append(doc.Rows, server.LeakageRow{
				Scheduler:             k.String(),
				Identical:             leakage.Identical(quiet, loud),
				MaxDivergence:         div,
				MutualInformationBits: leakage.MutualInformationBits(leakage.EpochDurations(quiet), leakage.EpochDurations(loud), 16),
			})
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("leakage document differs from direct profiles:\nserver: %s\ndirect: %s", got, want)
		}
	}
}

// TestAPIAuditJob pins the audit integration's determinism contract end
// to end: the certificate the daemon serves is byte-identical to what a
// direct fsmem.Audit caller computes, resubmission is a content-key
// cache hit, and a fault-injected audit FAILS through the API too.
func TestAPIAuditJob(t *testing.T) {
	cl, _ := startServer(t, server.Options{Workers: 2, GridShards: 4})
	ctx := context.Background()

	req := server.JobRequest{
		Kind: server.KindAudit,
		Audit: &server.AuditRequest{
			Scheduler:    "fs_np",
			Cores:        4,
			Bits:         8,
			Seeds:        2,
			Permutations: 49,
			Rounds:       1,
			Seed:         42,
		},
	}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("audit job state %s (%s)", st.State, st.Error)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	cert, err := fsmem.Audit(ctx, fsmem.FSNoPart, fsmem.AuditOptions{
		Domains: 4, Bits: 8, Seeds: 2, Permutations: 49, Rounds: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fsmem.MarshalLeakageCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon certificate differs from direct audit:\nserver: %s\ndirect: %s", got, want)
	}
	if cert.Verdict != fsmem.AuditSecure {
		t.Fatalf("fs_np audit verdict %s, want SECURE", cert.Verdict)
	}

	// Identical request (with defaults spelled differently) hits the cache.
	st2, err := cl.Submit(ctx, server.JobRequest{
		Kind:  server.KindAudit,
		Audit: &server.AuditRequest{Scheduler: "fs_np", Bits: 8, Seeds: 2, Permutations: 49, Rounds: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("equivalent audit request got a new job: %s vs %s", st2.ID, st.ID)
	}
	if !st2.State.Terminal() || !st2.CacheHit {
		t.Fatalf("resubmission not a cache hit: %+v", st2)
	}

	// Anti-vacuity through the API: a fault-injected FS audit must FAIL.
	st3, err := cl.Submit(ctx, server.JobRequest{
		Kind: server.KindAudit,
		Audit: &server.AuditRequest{
			Scheduler: "fs_np", Bits: 8, Seeds: 2, Permutations: 49, Rounds: 1,
			Fault: "derate-trcd",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st3, err = cl.Wait(ctx, st3.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var faulted fsmem.LeakageCertificate
	if err := cl.ResultJSON(ctx, st3.ID, &faulted); err != nil {
		t.Fatal(err)
	}
	if faulted.Verdict != fsmem.AuditFail {
		t.Fatalf("fault-injected audit verdict %s, want FAIL", faulted.Verdict)
	}
	if faulted.MonitorViolations == 0 {
		t.Fatal("fault-injected audit reported zero monitor violations")
	}

	// The audit job surfaced its engine counters on /metrics.
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "fsmemd_audit_attacks_evaluated") {
		t.Fatalf("audit metrics missing from /metrics:\n%s", metrics)
	}
}
