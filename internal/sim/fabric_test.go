package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/workload"
)

// legacyProduct reimplements the pre-fabric multi-channel semantics — N
// fully independent single-channel runs over contiguous domain blocks — as
// the reference the colored fabric must reproduce byte for byte.
func legacyProduct(t *testing.T, cfg Config, channels int) []Result {
	t.Helper()
	per := len(cfg.Mix.Profiles) / channels
	results := make([]Result, channels)
	for c := 0; c < channels; c++ {
		sub := cfg
		sub.Channels = 0
		sub.Routing = 0
		sub.Mix = workload.Mix{
			Name:     fmt.Sprintf("%s-ch%d", cfg.Mix.Name, c),
			Profiles: cfg.Mix.Profiles[c*per : (c+1)*per],
		}
		sub.Seed = cfg.Seed + uint64(c)*channelSeedStride
		res, err := Simulate(sub)
		if err != nil {
			t.Fatalf("legacy channel %d: %v", c, err)
		}
		results[c] = res
	}
	return results
}

// TestColoredFabricMatchesLegacyProduct pins the refactor's central
// correctness anchor: under colored routing every per-channel Result of
// the fabric is byte-identical to the standalone single-channel
// simulation of the same domain block (the legacy product-of-runs).
func TestColoredFabricMatchesLegacyProduct(t *testing.T) {
	cases := []struct {
		sched    SchedulerKind
		cores    int
		channels int
	}{
		{FSRankPart, 8, 2},
		{FSReorderedBank, 8, 2},
		{Baseline, 8, 2},
		{TPBank, 8, 2},
		{FSRankPart, 16, 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%dch", tc.sched, tc.channels), func(t *testing.T) {
			mix, err := workload.Rate("milc", tc.cores)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(mix, tc.sched)
			cfg.TargetReads = 600
			want := legacyProduct(t, cfg, tc.channels)

			cfg.Channels = tc.channels
			cfg.Routing = addr.RouteColored
			got, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.PerChannel) != tc.channels {
				t.Fatalf("PerChannel = %d results, want %d", len(got.PerChannel), tc.channels)
			}
			for c := range want {
				if !reflect.DeepEqual(got.PerChannel[c], want[c]) {
					t.Errorf("channel %d result diverges from the legacy standalone run:\n got %+v\nwant %+v",
						c, got.PerChannel[c].Run, want[c].Run)
				}
			}
			// The merged view concatenates domain blocks in channel order
			// and reports the wall-clock span plus per-channel cycles.
			var wantBus int64
			for c, w := range want {
				if w.Run.BusCycles > wantBus {
					wantBus = w.Run.BusCycles
				}
				if got.Run.ChannelCycles[c] != w.Run.BusCycles {
					t.Errorf("ChannelCycles[%d] = %d, want %d", c, got.Run.ChannelCycles[c], w.Run.BusCycles)
				}
			}
			if got.Run.BusCycles != wantBus {
				t.Errorf("merged BusCycles = %d, want max %d", got.Run.BusCycles, wantBus)
			}
			per := tc.cores / tc.channels
			for c, w := range want {
				for d, dom := range w.Run.Domains {
					if got.Run.Domains[c*per+d] != dom {
						t.Errorf("merged domain %d diverges", c*per+d)
					}
				}
			}
		})
	}
}

// TestColoredTruncationPerChannel: when one colored channel meets its
// read target and the other runs into the watchdog, only the starved
// channel's Result is truncated, every per-channel Result still equals
// its standalone run, and the merged Result carries the watchdog's
// reason and the full cycle span. Both channel orders are checked.
func TestColoredTruncationPerChannel(t *testing.T) {
	const target, limit = 400, 150_000
	busy, quiet := workload.Synthetic("busy", 30), workload.Synthetic("quiet", 0.01)
	block := func(p workload.Profile) []workload.Profile {
		return []workload.Profile{p, p, p, p}
	}
	for _, starved := range []int{0, 1} {
		t.Run(fmt.Sprintf("starved-ch%d", starved), func(t *testing.T) {
			mix := workload.Mix{Name: "lopsided", Profiles: append(block(busy), block(quiet)...)}
			if starved == 0 {
				mix.Profiles = append(block(quiet), block(busy)...)
			}
			cfg := DefaultConfig(mix, FSRankPart)
			cfg.TargetReads = target
			cfg.MaxBusCycles = limit
			want := legacyProduct(t, cfg, 2)

			cfg.Channels = 2
			cfg.Routing = addr.RouteColored
			got, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			watchdog := fmt.Sprintf("max-cycle watchdog: %d bus cycles without reaching %d reads", limit, target)
			for c, w := range want {
				if !reflect.DeepEqual(got.PerChannel[c], w) {
					t.Errorf("channel %d result diverges from its standalone run:\n got %+v\nwant %+v",
						c, got.PerChannel[c].Run, w.Run)
				}
				r := got.PerChannel[c]
				if c == starved {
					if !r.Truncated || r.TruncateReason != watchdog || r.Run.BusCycles != limit {
						t.Errorf("starved channel %d: truncated %v (%q) at cycle %d, want the watchdog at %d",
							c, r.Truncated, r.TruncateReason, r.Run.BusCycles, limit)
					}
				} else if r.Truncated || r.TruncateReason != "" || r.Run.BusCycles >= limit {
					t.Errorf("busy channel %d: truncated %v (%q) at cycle %d, want its target met before %d",
						c, r.Truncated, r.TruncateReason, r.Run.BusCycles, limit)
				}
			}
			if !got.Truncated || got.TruncateReason != watchdog {
				t.Errorf("merged truncation (%v, %q), want (true, %q)", got.Truncated, got.TruncateReason, watchdog)
			}
			if got.Run.BusCycles != limit {
				t.Errorf("merged BusCycles = %d, want %d", got.Run.BusCycles, limit)
			}
		})
	}
}

// TestSimulateChannelsTargetSystem runs the paper's Section 6 target
// system: 32 cores over 4 colored channels, each channel running FS_RP
// across its 8 domains.
func TestSimulateChannelsTargetSystem(t *testing.T) {
	mix, err := workload.Rate("milc", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 1200
	cfg.Channels = 4
	cfg.Routing = addr.RouteColored
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerChannel) != 4 {
		t.Fatalf("got %d channel results", len(res.PerChannel))
	}
	merged := res.Run
	if len(merged.Domains) != 32 {
		t.Fatalf("merged domains = %d, want 32", len(merged.Domains))
	}
	if merged.TotalReads() < 4*1200 {
		t.Fatalf("merged reads = %d", merged.TotalReads())
	}
	for d, dom := range merged.Domains {
		if dom.IPC() <= 0 {
			t.Errorf("domain %d idle", d)
		}
	}
}

// TestSimulateChannelsIsolation: colored channels are independent
// hardware, so one channel's workload cannot affect another channel's
// statistics at all.
func TestSimulateChannelsIsolation(t *testing.T) {
	mk := func(hot bool) []workload.Profile {
		ps := make([]workload.Profile, 16)
		for i := range ps {
			ps[i] = workload.Synthetic("calm", 5)
		}
		if hot {
			for i := 8; i < 16; i++ {
				ps[i] = workload.Synthetic("hot", 45)
			}
		}
		return ps
	}
	run := func(hot bool) Result {
		cfg := DefaultConfig(workload.Mix{Name: "iso", Profiles: mk(hot)}, FSRankPart)
		cfg.TargetReads = 0
		cfg.MaxBusCycles = 100_000
		cfg.Channels = 2
		cfg.Routing = addr.RouteColored
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(false)
	b := run(true)
	for d := 0; d < 8; d++ {
		if a.Run.Domains[d] != b.Run.Domains[d] {
			t.Fatalf("channel 0 domain %d perturbed by channel 1's workload", d)
		}
	}
	if a.Run.Domains[8] == b.Run.Domains[8] {
		t.Fatal("channel 1's workload change left its own domains untouched: the check is vacuous")
	}
}

// TestInterleavedFabric exercises the genuinely shared mode: every
// domain's lines stripe across all channels, so every channel services
// every domain and the merged statistics still account for each read
// exactly once.
func TestInterleavedFabric(t *testing.T) {
	for _, kind := range []SchedulerKind{Baseline, FSRankPart} {
		t.Run(kind.String(), func(t *testing.T) {
			mix, err := workload.Rate("milc", 8)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(mix, kind)
			cfg.TargetReads = 800
			cfg.Channels = 2
			cfg.Routing = addr.RouteInterleaved
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatalf("truncated: %s", res.TruncateReason)
			}
			if got := res.Run.TotalReads(); got < 800 {
				t.Errorf("merged reads = %d, want >= 800", got)
			}
			if len(res.Run.Domains) != 8 {
				t.Fatalf("merged domains = %d, want 8", len(res.Run.Domains))
			}
			for d, dom := range res.Run.Domains {
				if dom.IPC() <= 0 {
					t.Errorf("domain %d idle (ipc=0)", d)
				}
				if dom.Reads == 0 {
					t.Errorf("domain %d completed no reads", d)
				}
			}
			// Both channels must actually service traffic: striping by
			// column bits splits every domain's stream.
			for c, cres := range res.PerChannel {
				var reads int64
				for _, dom := range cres.Run.Domains {
					reads += dom.Reads
				}
				if reads == 0 {
					t.Errorf("channel %d serviced no reads under interleaved routing", c)
				}
			}
			// Each read is counted once: per-channel sums equal the merged total.
			var sum int64
			for _, cres := range res.PerChannel {
				for _, dom := range cres.Run.Domains {
					sum += dom.Reads
				}
			}
			if sum != res.Run.TotalReads() {
				t.Errorf("per-channel reads sum %d != merged %d", sum, res.Run.TotalReads())
			}
		})
	}
}

// TestFabricConfigErrors pins the typed rejection of inconsistent
// channel configurations.
func TestFabricConfigErrors(t *testing.T) {
	mix, err := workload.Rate("milc", 6)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, cfg Config) {
		t.Helper()
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("%s: config accepted, want CodeConfig error", name)
		}
		if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Fatalf("%s: got %v, want typed CodeConfig error", name, err)
		}
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.Channels = 4
	cfg.Routing = addr.RouteColored
	check("uneven colored split", cfg) // 6 domains over 4 channels

	cfg = DefaultConfig(mix, FSRankPart)
	cfg.Channels = -1
	check("negative channels", cfg)
}

// TestCheckFabric pins the one fabric-shape rule: a negative width and a
// colored split that leaves domains over are rejected with CodeConfig;
// the same split interleaved, and one channel under either routing, are
// accepted.
func TestCheckFabric(t *testing.T) {
	cases := []struct {
		channels int
		routing  addr.Routing
		domains  int
		ok       bool
	}{
		{-1, addr.RouteColored, 8, false},
		{-1, addr.RouteInterleaved, 8, false},
		{4, addr.RouteColored, 6, false},
		{4, addr.RouteInterleaved, 6, true},
		{4, addr.RouteColored, 8, true},
		{0, addr.RouteColored, 6, true},
		{1, addr.RouteColored, 6, true},
		{1, addr.RouteInterleaved, 6, true},
	}
	for _, c := range cases {
		err := CheckFabric(c.channels, c.routing, c.domains)
		if (err == nil) != c.ok {
			t.Errorf("CheckFabric(%d, %v, %d) = %v, want ok=%v", c.channels, c.routing, c.domains, err, c.ok)
		}
		if err != nil && fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("CheckFabric(%d, %v, %d) = %v, want a CodeConfig error", c.channels, c.routing, c.domains, err)
		}
	}
}

// TestCheckSchedulerMatchesNew holds CheckScheduler to the constructors it
// states the rules of: over every scheduler, both DRAM parts, domain
// counts around the rank and bank budgets and the triple-alternation
// period, three fabrics, refresh and three weight vectors, it must reject
// exactly the configurations New fails to build, with a config error.
// Among them are rank partitioning at 16 domains (rejected on one channel,
// accepted on two colored ones), triple alternation at 6 slots, bank
// partitioning with refresh, and 2 weights for 4 domains.
func TestCheckSchedulerMatchesNew(t *testing.T) {
	mix, err := workload.Rate("mcf", 16)
	if err != nil {
		t.Fatal(err)
	}
	ddr4 := dram.DDR4_2400()
	ddr4.RanksPerChan = 2
	fabrics := []struct {
		channels int
		routing  addr.Routing
	}{{1, addr.RouteColored}, {2, addr.RouteColored}, {2, addr.RouteInterleaved}}
	var rejected, accepted int
	for _, p := range []dram.Params{dram.DDR3_1600(), ddr4} {
		for k := Baseline; k <= FSNoPartTriple; k++ {
			for _, domains := range []int{1, 2, 3, 4, 6, 8, 9, 16} {
				for _, f := range fabrics {
					if CheckFabric(f.channels, f.routing, domains) != nil {
						continue
					}
					perDomain := make([]int, domains)
					for d := range perDomain {
						perDomain[d] = 1 + d%2
					}
					for _, refresh := range []bool{false, true} {
						for _, weights := range [][]int{nil, {1, 2}, perDomain} {
							cfg := DefaultConfig(workload.Mix{Name: "mcf", Profiles: mix.Profiles[:domains]}, k)
							cfg.DRAM, cfg.Channels, cfg.Routing = p, f.channels, f.routing
							cfg.RefreshEnabled, cfg.SLAWeights = refresh, weights
							checkErr := CheckScheduler(cfg, domains)
							_, newErr := New(cfg)
							if (checkErr == nil) != (newErr == nil) {
								t.Fatalf("%v, %d domains, %d channels %v, refresh %v, weights %v: CheckScheduler %v, New %v",
									k, domains, f.channels, f.routing, refresh, weights, checkErr, newErr)
							}
							if checkErr != nil {
								if fsmerr.CodeOf(checkErr) != fsmerr.CodeConfig {
									t.Fatalf("CheckScheduler = %v, want a CodeConfig error", checkErr)
								}
								rejected++
							} else {
								accepted++
							}
						}
					}
				}
			}
		}
	}
	for _, c := range []struct {
		k        SchedulerKind
		domains  int
		channels int
		refresh  bool
		weights  []int
		ok       bool
	}{
		{FSRankPart, 16, 1, false, nil, false},
		{FSRankPart, 16, 2, false, nil, true},
		{FSNoPartTriple, 6, 1, false, nil, false},
		{FSBankPart, 8, 1, true, nil, false},
		{FSRankPart, 4, 1, false, []int{1, 2}, false},
	} {
		cfg := DefaultConfig(workload.Mix{}, c.k)
		cfg.Channels, cfg.RefreshEnabled, cfg.SLAWeights = c.channels, c.refresh, c.weights
		if err := CheckScheduler(cfg, c.domains); (err == nil) != c.ok {
			t.Errorf("CheckScheduler(%v at %d domains on %d channels, refresh %v, weights %v) = %v, want ok=%v",
				c.k, c.domains, c.channels, c.refresh, c.weights, err, c.ok)
		}
	}
	if rejected < 100 || accepted < 100 {
		t.Fatalf("too few cases on one side: %d rejected, %d accepted", rejected, accepted)
	}
}
