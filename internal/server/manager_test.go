package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fsmem/internal/config"
	"fsmem/internal/fsmerr"
)

// smallSim returns a fast, deterministic simulate request; vary seed to
// address distinct cache entries.
func smallSim(seed uint64) JobRequest {
	e := config.Default()
	e.Workload = "mcf"
	e.Scheduler = "fs_bp"
	e.Cores = 2
	e.Reads = 300
	e.Seed = seed
	return JobRequest{Kind: KindSimulate, Simulate: &e}
}

// mustManager builds a manager or fails the test.
func mustManager(t *testing.T, o Options) *Manager {
	t.Helper()
	m, err := newManager(o)
	if err != nil {
		t.Fatalf("newManager: %v", err)
	}
	return m
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	return j.Status()
}

func TestJobIDDeterministic(t *testing.T) {
	a, b, c := smallSim(1), smallSim(1), smallSim(2)
	ka, err := a.normalize()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := b.normalize()
	kc, _ := c.normalize()
	if ka != kb || jobID(ka) != jobID(kb) {
		t.Fatalf("identical requests got different keys: %q vs %q", ka, kb)
	}
	if ka == kc {
		t.Fatalf("different seeds share a key: %q", ka)
	}
	obs := smallSim(1)
	obs.Observe = true
	ko, err := obs.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ko == ka {
		t.Fatal("observed request must cache separately from unobserved")
	}
}

// TestContentKeysPinned pins the content key and job ID of one valid
// request per job kind, each leaving some fields to their defaults. The
// key is a job's identity across daemon restarts, journal replays and
// the cluster ring, so how a request is checked may change but what it
// addresses may not.
func TestContentKeysPinned(t *testing.T) {
	cases := []struct {
		req     JobRequest
		key, id string
	}{
		{JobRequest{Kind: KindSimulate, Simulate: &config.Experiment{
			Workload: "milc", Cores: 4, Scheduler: "fs_rp", Reads: 1000, Seed: 3, Channels: 2, Routing: "colored"}},
			"sim|{workload:milc sched:3 prefetch:false energy:{SuppressDummies:false RowBufferBoost:false PowerDown:false} turn:0 cores:4 slotL:0 refresh:false weights:[] dram:0 channels:2 routing:0}|seed=3|reads=1000|maxcycles=40000000",
			"jc4f405d3fcd968be"},
		{JobRequest{Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Scheduler: "baseline"}},
			"sim|{workload:mcf sched:0 prefetch:false energy:{SuppressDummies:false RowBufferBoost:false PowerDown:false} turn:0 cores:8 slotL:0 refresh:false weights:[] dram:0 channels:1 routing:0}|seed=42|reads=20000|maxcycles=40000000",
			"ja4ad2aff356c1e5d"},
		{JobRequest{Kind: KindFigures, Figures: &FiguresRequest{Figures: []string{"6", "3"}}},
			"figures|3,6|cores=8|reads=20000|seed=42", "j0552c91ca64407e4"},
		{JobRequest{Kind: KindLeakage, Leakage: &LeakageRequest{
			Scheduler: "fs_np", Cores: 4, Samples: 3, Channels: 2, Routing: "interleaved"}},
			"leakage|sched=fs_np|attacker=mcf|cores=4|samples=3|seed=42|channels=2|routing=interleaved", "jf145bd6b8203e5b6"},
		{JobRequest{Kind: KindChaos, Chaos: &ChaosRequest{Scheduler: "fs_bp"}},
			"chaos|sched=fs_bp|workload=milc|cores=4|seed=7|cycles=0", "j171aef6e189371f0"},
		{JobRequest{Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Bits: 7, Fault: "derate-trcd"}},
			"audit|sched=fs_rp|cores=4|bits=8|window=10000|seeds=3|perms=199|rounds=2|seed=42|fault=derate-trcd|faultseed=7|channels=1|routing=colored",
			"ja8dcc12b1d73aa8d"},
	}
	for _, c := range cases {
		id, key, err := Canonicalize(&c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.req.Kind, err)
		}
		if key != c.key || id != c.id {
			t.Errorf("%s: content key moved:\n got %q %s\nwant %q %s", c.req.Kind, key, id, c.key, c.id)
		}
	}
}

func TestNormalizeRejectsBadRequests(t *testing.T) {
	cases := map[string]JobRequest{
		"unknown kind":      {Kind: "nope"},
		"missing payload":   {Kind: KindSimulate},
		"missing chaos":     {Kind: KindChaos},
		"two payloads":      {Kind: KindSimulate, Simulate: smallSim(1).Simulate, Chaos: &ChaosRequest{Scheduler: "fs_bp"}},
		"bad priority":      func() JobRequest { r := smallSim(1); r.Priority = "urgent"; return r }(),
		"observe non-sim":   {Kind: KindFigures, Observe: true, Figures: &FiguresRequest{}},
		"bad scheduler":     {Kind: KindChaos, Chaos: &ChaosRequest{Scheduler: "nope"}},
		"bad figure":        {Kind: KindFigures, Figures: &FiguresRequest{Figures: []string{"99"}}},
		"bad sim config":    {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Scheduler: "nope"}},
		"bad leakage sched": {Kind: KindLeakage, Leakage: &LeakageRequest{Scheduler: "nope"}},
		// Each payload below names something the engine that runs the job
		// rejects, so it must be refused at submission, not queued to fail.
		"leakage attacker":       {Kind: KindLeakage, Leakage: &LeakageRequest{Attacker: "nope"}},
		"leakage uneven colored": {Kind: KindLeakage, Leakage: &LeakageRequest{Cores: 6, Channels: 4}},
		"leakage channels":       {Kind: KindLeakage, Leakage: &LeakageRequest{Channels: -3}},
		"leakage cores":          {Kind: KindLeakage, Leakage: &LeakageRequest{Cores: -1}},
		"chaos workload":         {Kind: KindChaos, Chaos: &ChaosRequest{Scheduler: "fs_rp", Workload: "nope"}},
		"chaos cores":            {Kind: KindChaos, Chaos: &ChaosRequest{Scheduler: "fs_rp", Cores: 9999}},
		"audit cores":            {Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Cores: 1}},
		"audit permutations":     {Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Permutations: 5}},
		"audit uneven colored":   {Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Cores: 6, Channels: 4}},
		// Each payload below exceeds what its scheduler serves, a limit sim
		// states once (CheckScheduler) and every entry point applies.
		"simulate fs_rp ranks":   {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Cores: 16, Scheduler: "fs_rp", Reads: 500}},
		"audit fs_rp ranks":      {Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Cores: 16}},
		"chaos fs_rp ranks":      {Kind: KindChaos, Chaos: &ChaosRequest{Scheduler: "fs_rp", Cores: 16}},
		"leakage fs_rp ranks":    {Kind: KindLeakage, Leakage: &LeakageRequest{Scheduler: "fs_rp", Cores: 16}},
		"simulate triple slots":  {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Cores: 6, Scheduler: "fs_np_optimized"}},
		"simulate fs_bp refresh": {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Cores: 8, Scheduler: "fs_bp", Refresh: true}},
		"simulate weights count": {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Cores: 4, Scheduler: "fs_rp", SLAWeights: []int{1, 2}}},
	}
	for name, req := range cases {
		req := req
		if _, err := req.normalize(); err == nil {
			t.Errorf("%s: normalize accepted %+v", name, req)
		}
		// Submission refuses it with code config (HTTP 400) before admitting.
		admitted := errors.New("admitted")
		_, _, err := NewTable("", 1, 1).Submit(req, func(*Admission) (*Job, bool, error) { return nil, false, admitted })
		if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("%s: submission answered %v, want a config error", name, err)
		}
	}
}

// TestNormalizeAcceptsPerChannelCapacity checks that the scheduler limits
// apply per channel: 16 domains exceed the 8 ranks rank partitioning
// splits on one channel, but two colored channels hold 8 domains each.
func TestNormalizeAcceptsPerChannelCapacity(t *testing.T) {
	for name, req := range map[string]JobRequest{
		"simulate": {Kind: KindSimulate, Simulate: &config.Experiment{Workload: "mcf", Cores: 16, Scheduler: "fs_rp", Reads: 500, Channels: 2, Routing: "colored"}},
		"audit":    {Kind: KindAudit, Audit: &AuditRequest{Scheduler: "fs_rp", Cores: 16, Channels: 2}},
		"leakage":  {Kind: KindLeakage, Leakage: &LeakageRequest{Scheduler: "fs_rp", Cores: 16, Channels: 2}},
	} {
		if _, err := req.normalize(); err != nil {
			t.Errorf("%s: normalize refused fs_rp at 16 domains on 2 colored channels: %v", name, err)
		}
	}
}

// TestManagerDedup pins the singleflight property: N concurrent
// identical submissions collapse into one job and exactly one
// simulation.
func TestManagerDedup(t *testing.T) {
	m := mustManager(t, Options{Workers: 2, QueueDepth: 16, CacheEntries: 16, GridShards: 1})
	defer m.Drain(context.Background())

	const n = 16
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(smallSim(9))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if jobs[i] == nil || jobs[0] == nil {
			t.Fatal("missing job")
		}
		if jobs[i].ID != jobs[0].ID {
			t.Fatalf("submission %d got job %s, want %s", i, jobs[i].ID, jobs[0].ID)
		}
	}
	st := waitJob(t, jobs[0])
	if st.State != StateDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	if got := m.executed.Load(); got != 1 {
		t.Fatalf("executed %d simulations for %d identical submissions, want 1", got, n)
	}

	// A later identical submission is a cache hit with identical bytes.
	j, _, err := m.Submit(smallSim(9))
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, j)
	if !st.CacheHit {
		t.Fatal("resubmission after completion was not a cache hit")
	}
	a, _ := jobs[0].Result()
	b, _ := j.Result()
	if !bytes.Equal(a, b) {
		t.Fatal("cache hit returned different bytes")
	}
	if got := m.executed.Load(); got != 1 {
		t.Fatalf("cache hit re-executed: executed = %d", got)
	}
}

// TestManagerDrain pins the drain contract: accepted jobs (running or
// still queued) finish, new submissions fail with ErrDraining.
func TestManagerDrain(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, QueueDepth: 16, CacheEntries: 16, GridShards: 1})
	a, _, err := m.Submit(smallSim(21))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(smallSim(22)) // queued behind a on the single worker
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := a.Status(); st.State != StateDone {
		t.Fatalf("in-flight job dropped by drain: %s (%s)", st.State, st.Error)
	}
	if st := b.Status(); st.State != StateDone {
		t.Fatalf("queued job dropped by drain: %s (%s)", st.State, st.Error)
	}
	if _, _, err := m.Submit(smallSim(23)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestManagerCancelQueued(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, QueueDepth: 16, CacheEntries: 16, GridShards: 1})
	defer m.Drain(context.Background())
	// Occupy the single worker so the second job stays queued.
	a, _, err := m.Submit(JobRequest{Kind: KindSimulate, Simulate: func() *config.Experiment {
		e := config.Default()
		e.Workload = "mcf"
		e.Scheduler = "fs_bp"
		e.Cores = 2
		e.Reads = 5_000
		e.Seed = 31
		return &e
	}()})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(smallSim(32))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(b.ID) {
		t.Fatal("cancel returned false for a known job")
	}
	st := waitJob(t, b)
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job is %s, want canceled", st.State)
	}
	if st := waitJob(t, a); st.State != StateDone {
		t.Fatalf("unrelated job is %s, want done", st.State)
	}
	// A fresh identical submission replaces the canceled record.
	b2, created, err := m.Submit(smallSim(32))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("resubmission of a canceled job did not create a fresh attempt")
	}
	if st := waitJob(t, b2); st.State != StateDone {
		t.Fatalf("resubmitted job is %s, want done", st.State)
	}
}

// TestManagerCancelRunningLeakage: a running leakage job observes its
// cancellation. Every profile collection polls the job's context, so a
// DELETE ends a long comparison within seconds instead of after every
// running profile reaches its instruction budget.
func TestManagerCancelRunningLeakage(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, QueueDepth: 4, CacheEntries: 4, GridShards: 2})
	defer m.Drain(context.Background())
	j, _, err := m.Submit(JobRequest{Kind: KindLeakage, Leakage: &LeakageRequest{Samples: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); j.Status().State != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("leakage job never started: %s", j.Status().State)
		}
	}
	time.Sleep(200 * time.Millisecond)
	canceled := time.Now()
	if !m.Cancel(j.ID) {
		t.Fatal("cancel returned false for a running job")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("leakage job still running 5s after cancel")
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("canceled leakage job is %s (%s), want canceled", st.State, st.Error)
	}
	t.Logf("canceled after %v", time.Since(canceled))
}

func TestManagerQueueFull(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, QueueDepth: 1, CacheEntries: 16, GridShards: 1})
	defer m.Drain(context.Background())
	// One running + one queued fills the depth-1 queue; the third
	// distinct submission must fail fast.
	if _, _, err := m.Submit(smallSim(41)); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for seed := uint64(42); seed < 50; seed++ {
		if _, _, err := m.Submit(smallSim(seed)); errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("bounded queue never reported ErrQueueFull")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewLRU[string](2)
	c.Put("a", "a")
	c.Put("b", "b")
	if _, ok := c.Get("a"); !ok { // promote a
		t.Fatal("missing a")
	}
	c.Put("c", "c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction past capacity")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("missing c")
	}
	entries, hits, misses := c.Stats()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	// Same-key put replaces in place.
	c.Put("c", "c2")
	if v, _ := c.Get("c"); v != "c2" {
		t.Fatal("same-key put did not replace the entry")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(10, 2, func() time.Time { return now })
	if !b.allow() || !b.allow() {
		t.Fatal("burst tokens rejected")
	}
	if b.allow() {
		t.Fatal("empty bucket allowed a request")
	}
	// The Retry-After hint is the exact deterministic refill time.
	if ra := b.retryAfter(); ra != 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 100ms", ra)
	}
	now = now.Add(100 * time.Millisecond) // refills 1 token at 10/s
	if !b.allow() {
		t.Fatal("refilled token rejected")
	}
	if b.allow() {
		t.Fatal("bucket over-refilled")
	}
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ { // capped at burst, not rate*3600
		if !b.allow() {
			t.Fatalf("token %d after refill rejected", i)
		}
	}
	if b.allow() {
		t.Fatal("refill exceeded burst cap")
	}
}

func TestEventLog(t *testing.T) {
	l := newEventLog()
	l.publish(JobEvent{Phase: "queued"})
	l.publish(JobEvent{Phase: "running"})

	// Late subscriber replays history from the start.
	ctx := context.Background()
	ev, ok := l.next(ctx, 0)
	if !ok || ev.Phase != "queued" || ev.Seq != 0 {
		t.Fatalf("replay[0] = %+v, %v", ev, ok)
	}
	ev, ok = l.next(ctx, 1)
	if !ok || ev.Phase != "running" || ev.Seq != 1 {
		t.Fatalf("replay[1] = %+v, %v", ev, ok)
	}

	// A blocked reader wakes on publish.
	got := make(chan JobEvent, 1)
	go func() {
		ev, _ := l.next(ctx, 2)
		got <- ev
	}()
	time.Sleep(10 * time.Millisecond)
	l.publish(JobEvent{Phase: "done"})
	select {
	case ev := <-got:
		if ev.Phase != "done" {
			t.Fatalf("woke with %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never woke on publish")
	}

	// After close, reads past the end return ok=false; publishes drop.
	l.close()
	if _, ok := l.next(ctx, 3); ok {
		t.Fatal("read past end of a closed log succeeded")
	}
	l.publish(JobEvent{Phase: "late"})
	if _, ok := l.next(ctx, 3); ok {
		t.Fatal("publish after close was recorded")
	}

	// A canceled context unblocks a waiting reader.
	l2 := newEventLog()
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := l2.next(cctx, 0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("canceled reader reported an event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled reader never unblocked")
	}
}

// TestFinishedRecordsEvictByJob pins terminal-record eviction by job,
// not by resubmission: each cache-hit resubmission of a done job builds
// a fresh record, and maxFinished of them must not push another done
// job's record out of the table.
func TestFinishedRecordsEvictByJob(t *testing.T) {
	m := mustManager(t, Options{Workers: 1, QueueDepth: 16, CacheEntries: 16, GridShards: 1})
	defer m.Drain(context.Background())
	a, _, err := m.Submit(smallSim(61))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(smallSim(62))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{a, b} {
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", j.ID, st.State, st.Error)
		}
	}
	for i := 0; i < maxFinished; i++ {
		j, _, err := m.Submit(smallSim(61))
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().CacheHit {
			t.Fatalf("resubmission %d was not a cache hit", i)
		}
	}
	if _, ok := m.Get(b.ID); !ok {
		t.Fatalf("job %s evicted by %d resubmissions of job %s; only two jobs exist", b.ID, maxFinished, a.ID)
	}
}

// TestTableEvictsLeastRecentlyUsedRecord pins the bound on terminal
// records: past it the least recently used record goes, and reading a
// record counts as a use.
func TestTableEvictsLeastRecentlyUsedRecord(t *testing.T) {
	tb := NewTable("", 2, 4)
	enter := func(a *Admission) (*Job, bool, error) { return a.Enter(), true, nil }
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		j, _, err := tb.Submit(smallSim(seed), enter)
		if err != nil {
			t.Fatal(err)
		}
		tb.Finish(j, StateFailed, "", nil, errors.New("test failure"))
		ids = append(ids, j.ID)
		if seed == 2 {
			tb.Get(ids[0]) // the first record is now more recent than the second
		}
	}
	if _, ok := tb.Get(ids[1]); ok {
		t.Fatal("least recently used terminal record survived past the bound")
	}
	for _, id := range []string{ids[0], ids[2]} {
		if _, ok := tb.Get(id); !ok {
			t.Fatalf("recently used terminal record %s was evicted", id)
		}
	}
}
