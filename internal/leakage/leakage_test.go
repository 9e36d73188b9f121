package leakage

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fsmem/internal/addr"
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
	if testing.Short() {
		t.Skip("covert channel runs many windows")
	}
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
