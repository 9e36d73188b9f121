package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"fsmem/internal/fsmerr"
	"fsmem/internal/sim"
)

// renderAll regenerates every figure and ablation table at the given worker
// count and returns the concatenated rendered output — the exact bytes
// cmd/sweep would print.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	r := NewRunner(Settings{Cores: 8, TargetReads: 800, Seed: 42, Workers: workers})
	var b strings.Builder
	tables, err := All(r)
	if err != nil {
		t.Fatalf("workers=%d: All: %v", workers, err)
	}
	for _, tab := range tables {
		b.WriteString(tab.Format())
	}
	tables, err = Ablations(r)
	if err != nil {
		t.Fatalf("workers=%d: Ablations: %v", workers, err)
	}
	for _, tab := range tables {
		b.WriteString(tab.Format())
	}
	return b.String()
}

// TestParallelSweepMatchesSerial is the determinism claim the whole engine
// stands on, mechanically checked: regenerating every figure and ablation
// with an 8-wide worker pool yields byte-identical tables to the 1-wide
// (serial) pool. Reproducibility is the security argument for fixed
// service policies, so the parallel engine must not perturb a single byte.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison in -short mode")
	}
	if raceEnabled {
		t.Skip("full sweep comparison under the race detector")
	}
	serial := renderAll(t, 1)
	parallel := renderAll(t, 8)
	if serial != parallel {
		t.Fatalf("parallel sweep diverged from serial sweep:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 6") || !strings.Contains(serial, "Ablation A5") {
		t.Fatalf("sweep output incomplete:\n%s", serial)
	}
}

// TestSweepCancellation: a canceled runner context aborts the sweep with a
// structured CodeCanceled error instead of hanging or caching partial
// cells.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Settings{Cores: 8, TargetReads: 5000, Seed: 42, Workers: 4})
	r.Ctx = ctx
	_, err := All(r)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fsmerr.CodeOf(err) != fsmerr.CodeCanceled {
		t.Fatalf("want CodeCanceled, got %v", err)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Errorf("canceled sweep memoized %d partial cells", cached)
	}
}

// TestPrefetchDedup: listing the same cell many times (and re-running an
// already-warm grid) performs each simulation once.
func TestPrefetchDedup(t *testing.T) {
	r := NewRunner(Settings{Cores: 4, TargetReads: 300, Seed: 42, Workers: 4})
	suite, err := r.suite()
	if err != nil {
		t.Fatal(err)
	}
	mix := suite[0]
	specs := []Spec{}
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{Mix: mix, Kind: sim.Baseline})
	}
	if _, err := r.Grid(specs); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 1 {
		t.Fatalf("6 duplicate specs filled %d cells, want 1", cached)
	}
	if _, err := r.Grid(specs); err != nil {
		t.Fatal(err)
	}
}

// TestGridReportsFirstFailureInSpecOrder: Grid reports the first failed
// spec's error in spec order at every pool width, memoizes failures like
// results, and fires OnCell once per simulated cell.
func TestGridReportsFirstFailureInSpecOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var simulated atomic.Int32
		r := NewRunner(Settings{Cores: 4, TargetReads: 300, Seed: 42, Workers: workers,
			OnCell: func(string) { simulated.Add(1) }})
		suite, err := r.suite()
		if err != nil {
			t.Fatal(err)
		}
		good := Spec{Mix: suite[0], Kind: sim.Baseline}
		badWeights := Spec{Mix: suite[0], Kind: sim.FSRankPart, Mutate: func(c *sim.Config) { c.SLAWeights = []int{1} }}
		badTurn := Spec{Mix: suite[0], Kind: sim.TPBank, Mutate: func(c *sim.Config) { c.TPTurnLength = -3 }}
		for _, tc := range []struct {
			specs []Spec
			want  string
		}{
			{[]Spec{good, badWeights, badTurn, good}, "weights"},
			{[]Spec{badTurn, good, badWeights}, "turn length"},
		} {
			if _, err := r.Grid(tc.specs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("workers=%d: Grid error %v, want the %q failure", workers, err, tc.want)
			}
		}
		if n := simulated.Load(); n != 3 {
			t.Errorf("workers=%d: %d cells simulated, want 3", workers, n)
		}
	}
}
