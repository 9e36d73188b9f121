// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7). Each benchmark runs its experiment at a reduced read budget
// and reports the figure's headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` both times the harness and reproduces the
// result shapes. cmd/sweep prints the same tables at larger budgets.
package fsmem

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/audit"
	"fsmem/internal/config"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/experiments"
	"fsmem/internal/leakage"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
	"fsmem/internal/server/cluster"
	"fsmem/internal/sim"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

func benchSettings() experiments.Settings {
	return experiments.Settings{Cores: 8, TargetReads: 2500, Seed: 42}
}

func table(b *testing.B, f func(*experiments.Runner) (experiments.Table, error)) experiments.Table {
	b.Helper()
	tab, err := f(experiments.NewRunner(benchSettings()))
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTable1Solver regenerates the Section 3/4 l values (the paper's
// Equations 1-4) and reports the rank-partitioned minimum.
func BenchmarkTable1Solver(b *testing.B) {
	p := dram.DDR3_1600()
	var l int
	for i := 0; i < b.N; i++ {
		var err error
		l, err = core.MinL(core.FixedData, addr.PartitionRank, p)
		if err != nil {
			b.Fatal(err)
		}
		core.SolverTable(p)
	}
	b.ReportMetric(float64(l), "l_rank_fixed_data")
}

// BenchmarkFigure1Pipeline constructs and verifies the rank-partitioned
// pipeline of Figure 1 and reports commands scheduled per second.
func BenchmarkFigure1Pipeline(b *testing.B) {
	p := dram.DDR3_1600()
	writes := []bool{false, true, false, false, false, false, true, true}
	total := 0
	for i := 0; i < b.N; i++ {
		cmds, _, err := core.RecordPipeline(p, core.Config{Variant: core.FSRankPart, Domains: 8, Seed: 1}, writes, 50)
		if err != nil {
			b.Fatal(err)
		}
		if errs := core.VerifyPipeline(p, cmds); len(errs) != 0 {
			b.Fatalf("violations: %v", errs[0])
		}
		total = len(cmds)
	}
	b.ReportMetric(float64(total), "commands")
}

// BenchmarkFigure2TripleAlternation verifies the no-partitioning pipelines
// of Figure 2 (naive l=43 and triple alternation l=15).
func BenchmarkFigure2TripleAlternation(b *testing.B) {
	p := dram.DDR3_1600()
	writes := []bool{false, true, false, false, false, false, true, true}
	for i := 0; i < b.N; i++ {
		for _, v := range []core.Variant{core.FSNoPart, core.FSNoPartTriple} {
			cmds, _, err := core.RecordPipeline(p, core.Config{Variant: v, Domains: 8, Seed: 1}, writes, 10)
			if err != nil {
				b.Fatal(err)
			}
			if errs := core.VerifyPipeline(p, cmds); len(errs) != 0 {
				b.Fatalf("%v violations: %v", v, errs[0])
			}
		}
	}
}

// BenchmarkFigure3DesignSpace reports the design-space summary ratios.
func BenchmarkFigure3DesignSpace(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure3)
	}
	v := tab.Rows[0].Values
	b.ReportMetric(v[1], "FS_RP")
	b.ReportMetric(v[3], "TP_BP")
	b.ReportMetric(v[5], "TP_NP")
}

// BenchmarkFigure4Leakage reports the attacker-profile divergence under the
// baseline (positive) and FS_RP (exactly zero).
func BenchmarkFigure4Leakage(b *testing.B) {
	att, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	var baseDiv, fsDiv float64
	for i := 0; i < b.N; i++ {
		for _, k := range []sim.SchedulerKind{sim.Baseline, sim.FSRankPart} {
			quiet, err := leakage.CollectProfile(k, att, workload.Synthetic("idle", 0.01), 8, 10_000, 150_000, 42, 1, addr.RouteColored)
			if err != nil {
				b.Fatal(err)
			}
			loud, err := leakage.CollectProfile(k, att, workload.Synthetic("streaming", 45), 8, 10_000, 150_000, 42, 1, addr.RouteColored)
			if err != nil {
				b.Fatal(err)
			}
			d, err := leakage.Divergence(quiet, loud)
			if err != nil {
				b.Fatal(err)
			}
			if k == sim.Baseline {
				baseDiv = d
			} else {
				fsDiv = d
			}
		}
	}
	b.ReportMetric(baseDiv, "baseline_divergence")
	b.ReportMetric(fsDiv, "fs_divergence")
}

// BenchmarkFigure5TPTurnLength reports the fine-grained TP_BP throughput.
func BenchmarkFigure5TPTurnLength(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure5)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[0], "TP_BP_minturn_wipc")
	b.ReportMetric(am.Values[3], "TP_NP_minturn_wipc")
}

// BenchmarkFigure6FSvsTP reports the headline weighted-IPC comparison.
func BenchmarkFigure6FSvsTP(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure6)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[0], "FS_RP_wipc")
	b.ReportMetric(am.Values[2], "TP_BP_wipc")
	b.ReportMetric(am.Values[0]/am.Values[2], "FS_over_TP")
}

// BenchmarkFigure7Prefetch reports the FS_RP prefetching gain.
func BenchmarkFigure7Prefetch(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure7)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[1]/am.Values[2], "prefetch_speedup")
}

// BenchmarkFigure8Energy reports normalized memory energy.
func BenchmarkFigure8Energy(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure8)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[0], "FS_RP_energy")
	b.ReportMetric(am.Values[2], "TP_BP_energy")
}

// BenchmarkFigure9EnergyOpts reports the cumulative energy-optimization
// reduction.
func BenchmarkFigure9EnergyOpts(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure9)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[0], "FS_RP")
	b.ReportMetric(am.Values[len(am.Values)-1], "all_opts")
}

// BenchmarkFigure10Scalability reports the 2-core FS/TP ratio (the paper's
// hardest case for FS).
func BenchmarkFigure10Scalability(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.Figure10)
	}
	last := tab.Rows[len(tab.Rows)-1] // 2 cores
	b.ReportMetric(last.Values[0]/last.Values[2], "FS_over_TP_2core")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: DRAM bus
// cycles simulated per wall-clock second under the busiest scheduler.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(mix, sim.Baseline)
		cfg.TargetReads = 5000
		res, err := sim.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Run.BusCycles
	}
	b.ReportMetric(float64(cycles), "bus_cycles/run")
}

// benchLoop times one full simulation of the idle-heavy xalancbmk rate-2
// mix — the event-horizon kernel's home turf: two low-MPKI cores leave long
// interaction-free stretches for the clock to jump over.
func benchLoop(b *testing.B, dense bool) {
	mix, err := workload.Rate("xalancbmk", 2)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(mix, sim.Baseline)
		cfg.TargetReads = 5000
		cfg.DenseLoop = dense
		res, err := sim.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Run.BusCycles
	}
	b.ReportMetric(float64(cycles), "bus_cycles/run")
}

// BenchmarkSimulateDenseXalanRate2 pins the dense per-cycle loop on the
// idle-heavy workload. Its only purpose is to serve as the denominator for
// the fast-forward speedup gate (benchdiff -ratio-max in CI), which makes
// the ≥2× claim immune to runner-speed drift: both sides run on the same
// machine in the same invocation.
func BenchmarkSimulateDenseXalanRate2(b *testing.B) { benchLoop(b, true) }

// BenchmarkSimulateFastForwardXalanRate2 is the same workload under the
// event-horizon kernel (DESIGN.md §13). CI gates
// fast-forward ≤ 0.5 × dense on this pair.
func BenchmarkSimulateFastForwardXalanRate2(b *testing.B) { benchLoop(b, false) }

// benchFabric runs an 8-core workload through a 4-channel fabric under
// the given routing policy — the multi-channel counterpart of
// BenchmarkSimulatorThroughput. Colored routing is four independent
// machines, run as four concurrent lanes; interleaved routing stripes
// every domain over all channels, one lane in lockstep, and pays
// fabric-level contention.
func benchFabric(b *testing.B, routing addr.Routing) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(mix, sim.FSRankPart)
		cfg.TargetReads = 5000
		cfg.Channels = 4
		cfg.Routing = routing
		res, err := sim.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Run.BusCycles
	}
	b.ReportMetric(float64(cycles), "bus_cycles/run")
}

// BenchmarkSimulate4ChColored pins the page-colored 4-channel fabric.
func BenchmarkSimulate4ChColored(b *testing.B) { benchFabric(b, addr.RouteColored) }

// BenchmarkSimulate4ChInterleaved pins the address-interleaved 4-channel
// fabric.
func BenchmarkSimulate4ChInterleaved(b *testing.B) { benchFabric(b, addr.RouteInterleaved) }

// BenchmarkSimulateTraceOn runs the BenchmarkSimulatorThroughput workload
// with a live ring-buffer tracer and metrics snapshot, bounding the cost of
// full observation. BenchmarkSimulatorThroughput itself is the trace-off
// reference: the tracer hooks are compiled in there but nil, so its time
// and allocation count pin the observability layer's zero-cost-when-off
// claim.
func BenchmarkSimulateTraceOn(b *testing.B) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(mix, sim.Baseline)
		cfg.TargetReads = 5000
		Observe(&cfg, ObserveOptions{TraceCap: 1 << 14})
		res, err := sim.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Run.BusCycles
	}
	b.ReportMetric(float64(cycles), "bus_cycles/run")
}

// BenchmarkWeightedIPCMetric exercises the statistics path.
func BenchmarkWeightedIPCMetric(b *testing.B) {
	mix, err := workload.Rate("zeusmp", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(mix, sim.FSRankPart)
	cfg.TargetReads = 2000
	res, err := sim.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base, err := sim.Simulate(sim.Config{
		DRAM: cfg.DRAM, Mix: mix, Scheduler: sim.Baseline, Seed: cfg.Seed, TargetReads: 2000, MaxBusCycles: cfg.MaxBusCycles,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var w float64
	for i := 0; i < b.N; i++ {
		w, err = stats.WeightedIPC(res.Run, base.Run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w, "wipc")
}

// BenchmarkAblationDDR4 reports the DDR4-2400 design-space study (beyond
// the paper's DDR3 evaluation; see EXPERIMENTS.md Ablation A5).
func BenchmarkAblationDDR4(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = table(b, experiments.AblationDDR4)
	}
	am := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(am.Values[0], "FS_RP_ddr4")
	b.ReportMetric(am.Values[2], "TP_BP_ddr4")
}

// BenchmarkDifferentialChecker measures the two independent DDR timing
// validators agreeing over a random command stream (commands per second).
func BenchmarkDifferentialChecker(b *testing.B) {
	p := dram.DDR3_1600()
	for i := 0; i < b.N; i++ {
		ch := dram.NewChannel(p)
		ref := dram.NewReferenceChecker(p)
		seed := uint64(i + 1)
		next := func() uint64 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		cycle := int64(0)
		for n := 0; n < 400; n++ {
			r := next()
			cmd := dram.Command{
				Kind: dram.Kind(1 + r%5),
				Rank: int((r >> 8) % 8), Bank: int((r >> 16) % 8), Row: int((r >> 24) % 64),
			}
			if r%6 == 0 {
				cmd.Kind = dram.KindActivate
			}
			cycle += int64(1 + (r>>40)%8)
			chErr := ch.CanIssue(cmd, cycle)
			refErr := ref.Check(cmd, cycle)
			if (chErr == nil) != (refErr == nil) {
				b.Fatalf("validators disagree on %v at %d", cmd, cycle)
			}
			if chErr == nil {
				if err := ch.Issue(cmd, cycle); err != nil {
					b.Fatal(err)
				}
				ref.Apply(cmd, cycle)
			}
		}
	}
}

// BenchmarkSolverDDR4 times re-solving the full design space at DDR4
// timings, including the bank-group rotation design point.
func BenchmarkSolverDDR4(b *testing.B) {
	p := dram.DDR4_2400()
	var rot int
	for i := 0; i < b.N; i++ {
		core.SolverTable(p)
		var err error
		rot, err = core.MinLRotation(p.BankGroups, core.FixedRAS, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rot), "l_group_rotation")
}

// benchSweep regenerates every evaluation figure on a fresh runner with the
// given pool width. A fresh runner per iteration keeps the memo cache cold,
// so the benchmark times real simulation work, not cache hits.
func benchSweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Settings{Cores: 8, TargetReads: 800, Seed: 42, Workers: workers})
		tables, err := experiments.All(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("sweep produced no tables")
		}
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSweepParallel1 is the serial reference: the full figure sweep on
// a 1-wide pool. BenchmarkSweepParallel4 and 8 time the identical grid on
// wider pools; the speedup ratio is the parallel engine's scaling headline
// (bounded by GOMAXPROCS — a single-core machine shows ~1x by design).
func BenchmarkSweepParallel1(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 shards the sweep across 4 workers.
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkSweepParallel8 shards the sweep across 8 workers.
func BenchmarkSweepParallel8(b *testing.B) { benchSweep(b, 8) }

// BenchmarkServerCacheHit times the daemon's warmed hot path: an
// identical POST /v1/jobs answered from the result cache plus the GET
// of its cached document, through a real HTTP round trip. The paper
// grid is regenerated often with identical configs, so this path must
// stay well under 10ms per request. The daemon runs with durability
// enabled (DataDir set) to pin that layering the disk store under the
// LRU leaves the warmed in-memory hit path unchanged.
func BenchmarkServerCacheHit(b *testing.B) {
	s, err := server.New(server.Options{Workers: 1, RatePerSec: 1e9, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Drain(context.Background())
		ts.Close()
	}()
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	e := config.Default()
	e.Workload = "mcf"
	e.Scheduler = "fs_bp"
	e.Cores = 2
	e.Reads = 500
	req := server.JobRequest{Kind: server.KindSimulate, Simulate: &e}

	// Warm the cache with the one real simulation.
	st, err := cl.Submit(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID, time.Millisecond); err != nil || st.State != server.StateDone {
		b.Fatalf("warmup: %v (state %s)", err, st.State)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !st.State.Terminal() {
			b.Fatal("warmed submission was not answered from cache")
		}
		if _, err := cl.Result(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReadVerify times one verified read from the disk result
// store: open, header parse, length check, and SHA-256 over a
// result-document-sized payload. This is the per-entry cost a restarted
// daemon pays to re-serve persisted results, so it bounds recovery time
// per recovered job.
func BenchmarkStoreReadVerify(b *testing.B) {
	st, err := server.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"metric":"wipc","value":0.8125},`), 128) // ~4KB, a typical result doc
	const key = "sim|bench|store|read|verify"
	if err := st.Put(key, payload); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok, err := st.Get(key)
		if err != nil || !ok || len(got) != len(payload) {
			b.Fatalf("Get: ok=%v err=%v len=%d", ok, err, len(got))
		}
	}
	b.ReportMetric(float64(len(payload)), "payload_bytes")
}

// BenchmarkServerColdRecovery times a daemon boot over a data directory
// holding 16 accepted-but-unresolved journaled jobs whose results are
// already in the disk store: journal replay, 16 verified store reads,
// and the startup compaction. This is the restart-latency cost of the
// durability layer (the dominant recovery shape after a SIGKILL: the
// journal records accepts, the store holds the finished bytes).
func BenchmarkServerColdRecovery(b *testing.B) {
	dir := b.TempDir()
	const jobs = 16

	// Seed the store and journal through a real daemon run.
	seedReq := func(seed uint64) server.JobRequest {
		e := config.Default()
		e.Workload = "mcf"
		e.Scheduler = "fs_bp"
		e.Cores = 2
		e.Reads = 300
		e.Seed = seed
		return server.JobRequest{Kind: server.KindSimulate, Simulate: &e}
	}
	s, err := server.New(server.Options{Workers: 4, RatePerSec: 1e9, DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	for seed := uint64(1); seed <= jobs; seed++ {
		st, err := cl.Submit(ctx, seedReq(seed))
		if err != nil {
			b.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID, time.Millisecond); err != nil || st.State != server.StateDone {
			b.Fatalf("seeding: %v (state %s)", err, st.State)
		}
	}
	s.Drain(ctx)
	ts.Close()

	// Keep only the accept records (journal lines are independently
	// checksummed), so every job replays as accepted-but-unresolved and
	// recovery must re-serve it from the store.
	journalPath := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		b.Fatal(err)
	}
	var accepts []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, `"op":"accept"`) {
			accepts = append(accepts, line)
		}
	}
	if len(accepts) != jobs {
		b.Fatalf("seeded journal has %d accept records, want %d", len(accepts), jobs)
	}
	snapshot := []byte(strings.Join(accepts, "\n") + "\n")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(journalPath, snapshot, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s, err := server.New(server.Options{Workers: 2, RatePerSec: 1e9, DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		s.Drain(ctx)
	}
	b.StopTimer()
	b.ReportMetric(jobs, "jobs_recovered")

	// Guard: a recovered daemon must answer the seeded work from the
	// store, not by re-simulating.
	if err := os.WriteFile(journalPath, snapshot, 0o644); err != nil {
		b.Fatal(err)
	}
	s2, err := server.New(server.Options{Workers: 2, RatePerSec: 1e9, DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		s2.Drain(ctx)
		ts2.Close()
	}()
	cl2 := client.New(ts2.URL, ts2.Client())
	st2, err := cl2.Submit(ctx, seedReq(1))
	if err != nil {
		b.Fatal(err)
	}
	if !st2.State.Terminal() || !st2.CacheHit {
		b.Fatalf("recovered daemon did not serve seeded work from the store: %+v", st2)
	}
}

// BenchmarkClusterRouting times the coordinator's routing hot path: one
// consistent-hash Owner lookup per content-addressed job ID over an
// 8-worker ring. Every submission and every retry walk pays this cost,
// so it must stay allocation-free and well under a microsecond.
func BenchmarkClusterRouting(b *testing.B) {
	ring := cluster.NewRing()
	for i := 0; i < 8; i++ {
		ring.Add(fmt.Sprintf("http://worker-%d:8377", i))
	}
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%016x", uint64(i)*0x9e3779b97f4a7c15)
	}
	spread := map[string]bool{}
	for _, id := range ids {
		spread[ring.Owner(id)] = true
	}
	if len(spread) != 8 {
		b.Fatalf("1024 IDs landed on %d/8 workers", len(spread))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(ids[i%len(ids)]) == "" {
			b.Fatal("empty owner")
		}
	}
}

// BenchmarkKolmogorovSmirnov times the two-sample KS statistic on
// realistic campaign-sized inputs. The statistic sits inside the
// permutation-test loop (hundreds of evaluations per certificate), so
// the sort.Float64s implementation must hold its O(n log n) shape.
func BenchmarkKolmogorovSmirnov(b *testing.B) {
	class0, class1 := ksBenchInput(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var d float64
	for i := 0; i < b.N; i++ {
		d = leakage.KolmogorovSmirnov(class0, class1)
	}
	b.ReportMetric(d, "ks_stat")
}

// BenchmarkKolmogorovSmirnovInsertionSort is the reference the sorted
// implementation is gated against: the same statistic over the
// quadratic insertion sort KolmogorovSmirnov used to ship with. The
// ratio-max gate in CI keeps the O(n log n) win locked in.
func BenchmarkKolmogorovSmirnovInsertionSort(b *testing.B) {
	class0, class1 := ksBenchInput(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0 := append([]float64(nil), class0...)
		s1 := append([]float64(nil), class1...)
		insertionSortRef(s0)
		insertionSortRef(s1)
	}
}

func insertionSortRef(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func ksBenchInput(n int) (class0, class1 []float64) {
	rng := trace.NewRNG(99)
	class0, class1 = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		class0[i] = rng.Float64()
		class1[i] = 0.1 + rng.Float64()
	}
	return class0, class1
}

// BenchmarkAuditCampaign runs a reduced adversarial leakage audit end to
// end — strategy library, one adaptive refinement round, multi-seed
// certification, permutation tests — and reports the certificate size.
// This is the hot path of CI's audit-smoke job and the fsmemd "audit"
// job kind.
func BenchmarkAuditCampaign(b *testing.B) {
	o := audit.Options{Domains: 4, Bits: 8, Seeds: 2, Permutations: 49, Rounds: 1, Seed: 42}
	var n int
	for i := 0; i < b.N; i++ {
		cert, err := audit.Run(context.Background(), sim.FSNoPart, o)
		if err != nil {
			b.Fatal(err)
		}
		if cert.Verdict != audit.VerdictSecure {
			b.Fatalf("FS_NP verdict %s, want SECURE", cert.Verdict)
		}
		raw, err := audit.MarshalCertificate(cert)
		if err != nil {
			b.Fatal(err)
		}
		n = len(raw)
	}
	b.ReportMetric(float64(n), "cert_bytes")
}
