package leakage

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

func attacker(t *testing.T) workload.Profile {
	t.Helper()
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t *testing.T, k sim.SchedulerKind, coMPKI float64) Profile {
	t.Helper()
	co := workload.Synthetic("co", coMPKI)
	prof, err := CollectProfile(k, attacker(t), co, 8, 10_000, 300_000, 99, 1, addr.RouteColored)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return prof
}

// TestFigure4NonInterference is the heart of the paper's security claim:
// the attacker's execution profile under every FS variant must be
// bit-identical whether its co-runners are idle or memory-intensive, while
// the non-secure baseline visibly diverges.
func TestFigure4NonInterference(t *testing.T) {
	for _, k := range []sim.SchedulerKind{sim.FSRankPart, sim.FSBankPart, sim.FSReorderedBank, sim.FSNoPart, sim.FSNoPartTriple} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			quiet := collect(t, k, 0.01)
			loud := collect(t, k, 45)
			if !Identical(quiet, loud) {
				d, _ := Divergence(quiet, loud)
				t.Fatalf("%v leaked: profiles diverge by %.4f", k, d)
			}
		})
	}
}

func TestBaselineLeaks(t *testing.T) {
	quiet := collect(t, sim.Baseline, 0.01)
	loud := collect(t, sim.Baseline, 45)
	if Identical(quiet, loud) {
		t.Fatal("baseline profiles identical: simulated contention is not visible at all")
	}
	d, err := Divergence(quiet, loud)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.05 {
		t.Errorf("baseline divergence %.4f suspiciously small; Figure 4 shows a large gap", d)
	}
}

func TestTPDoesNotLeakTiming(t *testing.T) {
	// Wang et al.'s TP is also secure; our model must preserve that.
	quiet := collect(t, sim.TPBank, 0.01)
	loud := collect(t, sim.TPBank, 45)
	if !Identical(quiet, loud) {
		d, _ := Divergence(quiet, loud)
		t.Fatalf("TP_BP leaked: divergence %.4f", d)
	}
}

func TestMutualInformation(t *testing.T) {
	quietB := collect(t, sim.Baseline, 0.01)
	loudB := collect(t, sim.Baseline, 45)
	miB := MutualInformationBits(EpochDurations(quietB), EpochDurations(loudB), 16)

	quietF := collect(t, sim.FSRankPart, 0.01)
	loudF := collect(t, sim.FSRankPart, 45)
	miF := MutualInformationBits(EpochDurations(quietF), EpochDurations(loudF), 16)

	if miF != 0 {
		t.Errorf("FS mutual information = %.4f bits, want exactly 0", miF)
	}
	if miB <= 0.1 {
		t.Errorf("baseline mutual information = %.4f bits, want clearly positive", miB)
	}
	t.Logf("mutual information: baseline %.3f bits, FS_RP %.3f bits", miB, miF)
}

func TestMutualInformationEstimator(t *testing.T) {
	// Identical distributions carry zero information.
	same := []float64{1, 2, 3, 4, 5, 1, 2, 3}
	if mi := MutualInformationBits(same, same, 8); mi != 0 {
		t.Errorf("MI(same, same) = %v, want 0", mi)
	}
	// Perfectly separated distributions carry ~1 bit.
	lo := []float64{1, 1.1, 0.9, 1.05, 0.95, 1.02}
	hi := []float64{9, 9.1, 8.9, 9.05, 8.95, 9.02}
	if mi := MutualInformationBits(lo, hi, 8); mi < 0.9 {
		t.Errorf("MI(separated) = %v, want ~1 bit", mi)
	}
	// Degenerate inputs.
	if mi := MutualInformationBits(nil, hi, 8); mi != 0 {
		t.Errorf("MI(nil, x) = %v, want 0", mi)
	}
	if mi := MutualInformationBits(lo, hi, 0); mi != 0 {
		t.Errorf("MI with 0 bins = %v, want 0", mi)
	}
}

func TestCovertChannel(t *testing.T) {
	message := []bool{true, false, true, true, false, false, true, false, true, false, false, true}
	base, err := CovertChannel(sim.Baseline, 8, message, 40_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	fsres, err := CovertChannel(sim.FSRankPart, 8, message, 40_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("covert channel BER: baseline %.2f, FS_RP %.2f", base.BitErrorRate, fsres.BitErrorRate)
	if base.BitErrorRate > 0.2 {
		t.Errorf("baseline covert channel BER %.2f: the channel should work on a non-secure scheduler", base.BitErrorRate)
	}
	if fsres.BitErrorRate < 0.3 {
		t.Errorf("FS covert channel BER %.2f: FS should reduce the channel to chance", fsres.BitErrorRate)
	}
}

// TestRunChannelWindowsMatchTheirOwnSimulation pins RunChannel's window
// reuse: every window's observable equals the receiver's progress in a
// simulation of that window's own config, and the monitor's count sums
// over every window, also under a fault plan that fires mid-window.
func TestRunChannelWindowsMatchTheirOwnSimulation(t *testing.T) {
	probe, burst, quiet := CovertLoads()
	message := []bool{true, false, false, true, true, false}
	dropACT, ok := fault.PlanByName("drop-act", 4, 7) // fires at cycle 2,000
	if !ok {
		t.Fatal("no drop-act plan")
	}
	cases := []struct {
		name  string
		sched sim.SchedulerKind
		plan  *fault.Plan
	}{
		{"Baseline", sim.Baseline, nil},
		{"FS_RP", sim.FSRankPart, nil},
		{"FS_RP/drop-act", sim.FSRankPart, dropACT},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p := ChannelParams{Domains: 4, Probe: probe, On: burst, Off: quiet,
				WindowBusCycles: 4_000, Seed: 11, Fault: c.plan}
			run, err := RunChannel(context.Background(), c.sched, message, p)
			if err != nil {
				t.Fatal(err)
			}
			if run.Simulated != 2 {
				t.Errorf("simulated %d windows, want one per bit value", run.Simulated)
			}
			violations := 0
			for i, bit := range message {
				res, err := sim.Simulate(windowConfig(c.sched, p, bit))
				if err != nil {
					t.Fatal(err)
				}
				if want := float64(res.Run.Domains[0].Instructions); run.Durations[i] != want {
					t.Errorf("window %d (bit %v): observable %v, its own simulation reads %v", i, bit, run.Durations[i], want)
				}
				m := res.Monitor
				violations += m.TimingViolations + m.ScheduleViolations + m.SchedulerViolations
			}
			if run.MonitorViolations != violations {
				t.Errorf("monitor violations %d, the windows' own runs sum to %d", run.MonitorViolations, violations)
			}
			if c.plan != nil && violations == 0 {
				t.Error("drop-act raised no monitor violation")
			}
			if c.sched == sim.Baseline && run.Durations[0] == run.Durations[1] {
				t.Error("the Baseline's windows read alike for both bits, so the check cannot tell their runs apart")
			}
		})
	}
}

// TestCollectProfilePinned pins the profile path itself, not just the
// quiet == loud relation the non-interference tests assert: a change that
// shifted both profiles alike (say, a core falling behind the clock when
// its instruction count is sampled) would pass those and fail here. The
// hashes cover every milestone cycle of a short profile under the leaky
// and a secure scheduler against idle and streaming co-runners.
func TestCollectProfilePinned(t *testing.T) {
	cases := []struct {
		sched sim.SchedulerKind
		co    workload.Profile
		want  string
	}{
		{sim.Baseline, workload.Synthetic("idle", 0.01), "c620768f263dac47660585125b8582bc3d35bb30ddc003f16981a09d860f26eb"},
		{sim.Baseline, workload.Synthetic("streaming", 45), "0eaa91a91805c2524438c0a46df08370af6857a4f9aaf052c606718c7b3849c0"},
		{sim.FSRankPart, workload.Synthetic("idle", 0.01), "dbcbb3f8a5c6a36e9a252ab7e767806054a5f5e40d5718243713e25d162105bd"},
		{sim.FSRankPart, workload.Synthetic("streaming", 45), "dbcbb3f8a5c6a36e9a252ab7e767806054a5f5e40d5718243713e25d162105bd"},
	}
	for _, c := range cases {
		t.Run(c.sched.String()+"/"+c.co.Name, func(t *testing.T) {
			t.Parallel()
			prof, err := CollectProfile(c.sched, attacker(t), c.co, 8, 10_000, 100_000, 99, 1, addr.RouteColored)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, at := range prof.CyclesAt {
				fmt.Fprintf(h, "%d\n", at)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("profile drifted, milestones at %v:\n got %s\nwant %s", prof.CyclesAt, got, c.want)
			}
		})
	}
}

func TestDivergenceErrors(t *testing.T) {
	if _, err := Divergence(Profile{}, Profile{}); err == nil {
		t.Error("Divergence on empty profiles should error")
	}
}

// TestCompareRejectsBadParams pins that Compare refuses parameters it
// cannot run with a config error before it collects any profile: a
// negative domain count (on which every profile cell would panic) and a
// colored split that leaves domains over.
func TestCompareRejectsBadParams(t *testing.T) {
	for _, p := range []CompareParams{
		{Attacker: attacker(t), Domains: -1, Schedulers: []sim.SchedulerKind{sim.Baseline}, Samples: 1},
		{Attacker: attacker(t), Domains: 6, Schedulers: []sim.SchedulerKind{sim.Baseline}, Samples: 1, Channels: 4},
	} {
		_, err := Compare(context.Background(), p)
		if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("Compare(%d domains, %d channels) = %v, want a config error", p.Domains, p.Channels, err)
		}
		if err := p.Check(); fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("Check(%d domains, %d channels) = %v, want a config error", p.Domains, p.Channels, err)
		}
	}
}
