package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsmem/internal/fault"
)

// durableOpts is the standard manager config for the crash tests: one
// worker (deterministic queue order) over a journal + store in dir.
func durableOpts(dir string) Options {
	return Options{Workers: 1, QueueDepth: 16, CacheEntries: 16, GridShards: 1, DataDir: dir}
}

func resultBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	e, ok := j.Result()
	if !ok {
		t.Fatalf("job %s has no result (state %s)", j.ID, j.Status().State)
	}
	return e
}

// TestRecoveryServesDoneFromStore pins the restart-over-done path: a
// SIGKILLed daemon restarted on the same data directory answers a
// resubmission byte-identically from the disk store, without
// re-simulating, and compacts the journal down to nothing.
func TestRecoveryServesDoneFromStore(t *testing.T) {
	dir := t.TempDir()
	m1 := mustManager(t, durableOpts(dir))
	j1, _, err := m1.Submit(smallSim(51))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	want := resultBytes(t, j1)
	m1.crash()

	m2 := mustManager(t, durableOpts(dir))
	defer m2.Drain(context.Background())
	// A client polling j1's ID across the crash keeps getting answers:
	// recovery rematerializes journaled done jobs from the store instead
	// of forgetting them (a poller would otherwise hit 404s).
	rj, ok := m2.Get(j1.ID)
	if !ok {
		t.Fatalf("done job %s forgotten across restart", j1.ID)
	}
	if st := rj.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("recovered done job: state %s cacheHit %v, want done hit", st.State, st.CacheHit)
	}
	if got := m2.recoveredServed.Load(); got != 1 {
		t.Fatalf("recoveredServed = %d, want 1", got)
	}
	j2, _, err := m2.Submit(smallSim(51))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j2)
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("restarted resubmission: state %s cacheHit %v, want done hit", st.State, st.CacheHit)
	}
	if got := resultBytes(t, j2); !bytes.Equal(got, want) {
		t.Fatalf("restart served different bytes:\npre:  %s\npost: %s", want, got)
	}
	if got := m2.executed.Load(); got != 0 {
		t.Fatalf("restart re-simulated a persisted result (%d executions)", got)
	}
	if _, hits, _, _, _ := m2.store.Stats(); hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
	// The startup compaction dropped the done job's records.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("journal not compacted after recovery: %q", data)
	}
}

// TestRecoveryRequeuesAcceptedJobs pins the zero-lost-jobs contract: a
// crash with one job running and two queued restarts into a manager
// that re-executes all three to done, with the interrupted job's crash
// counter advanced, and the re-executed result is byte-identical to a
// fresh simulation of the same request.
func TestRecoveryRequeuesAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	m1 := mustManager(t, durableOpts(dir))
	// Capacity covers every job: after the crash cancels the base
	// context, the worker still drains the (closed) queues' buffered
	// jobs through this body, and those sends must not block.
	started := make(chan string, 8)
	m1.testRun = func(ctx context.Context, j *Job) (*cacheEntry, error) {
		started <- j.ID
		<-ctx.Done() // wedge the worker until the "SIGKILL"
		return nil, ctx.Err()
	}
	var ids []string
	for seed := uint64(61); seed <= 63; seed++ {
		j, _, err := m1.Submit(smallSim(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	running := <-started // the single worker has journaled job 1 running
	if running != ids[0] {
		t.Fatalf("worker picked %s first, want %s", running, ids[0])
	}
	m1.crash()

	m2 := mustManager(t, durableOpts(dir)) // real executor this time
	defer m2.Drain(context.Background())
	if got := m2.recoveredRequeued.Load(); got != 3 {
		t.Fatalf("recovered %d jobs, want 3", got)
	}
	for i, id := range ids {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %d (%s) lost across the crash", i, id)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("recovered job %d: state %s (%s)", i, st.State, st.Error)
		}
	}
	j0, _ := m2.Get(ids[0])
	if st := j0.Status(); st.Attempts != 1 {
		t.Fatalf("interrupted job attempts = %d, want 1 (it was running at the crash)", st.Attempts)
	}

	// Deterministic-replay soundness: the post-crash re-execution
	// produced exactly the bytes a fresh, never-crashed manager does.
	fresh := mustManager(t, Options{Workers: 1, QueueDepth: 16, CacheEntries: 16, GridShards: 1})
	defer fresh.Drain(context.Background())
	jf, _, err := fresh.Submit(smallSim(61))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jf); st.State != StateDone {
		t.Fatalf("fresh run: %s", st.State)
	}
	if !bytes.Equal(resultBytes(t, j0), resultBytes(t, jf)) {
		t.Fatal("recovered re-execution differs from a fresh simulation")
	}
}

// TestPoisonJobQuarantine pins the in-process quarantine path: a job
// whose body panics is isolated (the worker survives), fails with an
// advancing crash counter, and is parked at the threshold; further
// resubmissions report the verdict without re-executing, and the
// verdict survives a crash/restart.
func TestPoisonJobQuarantine(t *testing.T) {
	dir := t.TempDir()
	o := durableOpts(dir)
	o.QuarantineAfter = 3
	m1 := mustManager(t, o)
	m1.testRun = func(ctx context.Context, j *Job) (*cacheEntry, error) {
		panic("poison config: simulator invariant violated")
	}
	for attempt := 1; attempt <= 3; attempt++ {
		j, created, err := m1.Submit(smallSim(71))
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if !created {
			t.Fatalf("attempt %d joined a stale job instead of retrying", attempt)
		}
		st := waitJob(t, j)
		wantState := StateFailed
		if attempt == 3 {
			wantState = StateQuarantined
		}
		if st.State != wantState || st.Attempts != attempt {
			t.Fatalf("attempt %d: state %s attempts %d, want %s/%d (%s)",
				attempt, st.State, st.Attempts, wantState, attempt, st.Error)
		}
	}
	if got := m1.executed.Load(); got != 3 {
		t.Fatalf("executed %d times, want 3", got)
	}
	// Attempt 4: the verdict is served without touching the executor.
	j, _, err := m1.Submit(smallSim(71))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateQuarantined {
		t.Fatalf("resubmitted poison: %s, want quarantined", st.State)
	}
	if got := m1.executed.Load(); got != 3 {
		t.Fatalf("quarantined job re-executed (%d executions)", got)
	}
	m1.crash()

	// The verdict survives the crash: the restarted manager (with a
	// healthy executor!) still refuses to run it.
	m2 := mustManager(t, o)
	defer m2.Drain(context.Background())
	if got := m2.recoveredQuarantined.Load(); got != 1 {
		t.Fatalf("recoveredQuarantined = %d, want 1", got)
	}
	j2, _, err := m2.Submit(smallSim(71))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != StateQuarantined || st.Attempts != 3 {
		t.Fatalf("post-restart poison: %s/%d, want quarantined/3", st.State, st.Attempts)
	}
	if got := m2.executed.Load(); got != 0 {
		t.Fatalf("restarted manager executed a quarantined job %d times", got)
	}
}

// TestRecoveryQuarantinesCrashLoop pins the hard-crash loop breaker: a
// journal that says a job was mid-execution when the process died (for
// the Nth time) quarantines the job at recovery instead of letting it
// kill the daemon again.
func TestRecoveryQuarantinesCrashLoop(t *testing.T) {
	dir := t.TempDir()
	id, key, req := journalJob(t, 81)
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.accept(id, key, req); err != nil {
		t.Fatal(err)
	}
	// Two prior lives already died running this job; this journal is
	// what the third life's SIGKILL left behind.
	if err := jl.state(id, StateRunning, 2); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	o := durableOpts(dir)
	o.QuarantineAfter = 3
	m := mustManager(t, o)
	defer m.Drain(context.Background())
	if got := m.recoveredQuarantined.Load(); got != 1 {
		t.Fatalf("recoveredQuarantined = %d, want 1", got)
	}
	j, ok := m.Get(id)
	if !ok {
		t.Fatal("crash-loop job missing from the table")
	}
	st := j.Status()
	if st.State != StateQuarantined || st.Attempts != 3 {
		t.Fatalf("crash-loop job: %s/%d, want quarantined/3", st.State, st.Attempts)
	}
	if got := m.executed.Load(); got != 0 {
		t.Fatal("crash-loop job was re-executed")
	}
	// One crash short of the threshold re-enqueues instead.
	dir2 := t.TempDir()
	id2, key2, req2 := journalJob(t, 82)
	jl2, err := openJournal(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl2.accept(id2, key2, req2); err != nil {
		t.Fatal(err)
	}
	if err := jl2.state(id2, StateRunning, 1); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	o2 := durableOpts(dir2)
	o2.QuarantineAfter = 3
	m2 := mustManager(t, o2)
	defer m2.Drain(context.Background())
	j2, ok := m2.Get(id2)
	if !ok {
		t.Fatal("below-threshold job missing")
	}
	if st := waitJob(t, j2); st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("below-threshold job: %s/%d, want done/2", st.State, st.Attempts)
	}
}

// TestRecoveryCorruptStoreEntry closes the self-healing loop end to
// end: a persisted result damaged on disk is detected by checksum at
// recovery, deleted, transparently re-simulated, and the fresh result
// is byte-identical to the original.
func TestRecoveryCorruptStoreEntry(t *testing.T) {
	dir := t.TempDir()
	req := smallSim(91)
	key, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	m1 := mustManager(t, durableOpts(dir))
	j1, _, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	want := resultBytes(t, j1)
	m1.crash()

	// Flip a bit in the persisted entry, as media rot would.
	path := (&Store{dir: filepath.Join(dir, "store")}).Path(key)
	if err := fault.CorruptFile(path, fault.DiskBitFlip, 7); err != nil {
		t.Fatal(err)
	}

	m2 := mustManager(t, durableOpts(dir))
	defer m2.Drain(context.Background())
	j2, _, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("re-simulated job: %s (%s)", st.State, st.Error)
	}
	if got := resultBytes(t, j2); !bytes.Equal(got, want) {
		t.Fatal("re-simulated result differs from the pre-corruption bytes")
	}
	if got := m2.executed.Load(); got != 1 {
		t.Fatalf("executed %d times, want exactly 1 re-simulation", got)
	}
	if _, _, _, corrupt, _ := m2.store.Stats(); corrupt != 1 {
		t.Fatalf("store corrupt counter = %d, want 1", corrupt)
	}
	if got := m2.storeErrors.Load(); got != 1 {
		t.Fatalf("manager storeErrors = %d, want 1", got)
	}
	// The healed entry is back on disk and serves the next restart.
	m2.Drain(context.Background())
	m3 := mustManager(t, durableOpts(dir))
	defer m3.Drain(context.Background())
	j3, _, err := m3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j3)
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("healed entry not re-served: %s hit=%v", st.State, st.CacheHit)
	}
	if !bytes.Equal(resultBytes(t, j3), want) {
		t.Fatal("healed entry serves different bytes")
	}
	if got := m3.executed.Load(); got != 0 {
		t.Fatal("healed entry was re-simulated again")
	}
}

// TestCacheEvictionUnderConcurrentSubmit hammers a 2-entry LRU with 4
// distinct configs from many goroutines so evictions constantly race
// live singleflight joins; every completion must return the canonical
// bytes for its seed. Run under -race this pins the cache/manager
// interaction the serving path depends on.
func TestCacheEvictionUnderConcurrentSubmit(t *testing.T) {
	m := mustManager(t, Options{Workers: 4, QueueDepth: 64, CacheEntries: 2, GridShards: 1})
	defer m.Drain(context.Background())

	const seeds = 4
	canonical := make([][]byte, seeds)
	for i := 0; i < seeds; i++ {
		j, _, err := m.Submit(smallSim(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("seed %d: %s", i, st.State)
		}
		canonical[i] = resultBytes(t, j)
	}

	const goroutines, iters = 8, 6
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for it := 0; it < iters; it++ {
				seed := (g + it) % seeds
				j, _, err := m.Submit(smallSim(uint64(100 + seed)))
				if err != nil {
					errc <- err
					return
				}
				select {
				case <-j.Done():
				case <-time.After(30 * time.Second):
					errc <- fmt.Errorf("goroutine %d: job %s stuck", g, j.ID)
					return
				}
				if st := j.Status(); st.State != StateDone {
					errc <- fmt.Errorf("goroutine %d seed %d: state %s (%s)", g, seed, st.State, st.Error)
					return
				}
				e, ok := j.Result()
				if !ok || !bytes.Equal(e, canonical[seed]) {
					errc <- fmt.Errorf("goroutine %d seed %d: wrong bytes (ok=%v)", g, seed, ok)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
