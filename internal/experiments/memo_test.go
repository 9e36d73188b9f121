package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fsmem/internal/obs"
	"fsmem/internal/sched"
	"fsmem/internal/sim"
)

// runLogged runs figures in order on one runner at a small budget and
// returns the memo keys each one simulated.
func runLogged(t *testing.T, figs ...func(*Runner) (Table, error)) (*Runner, [][]string) {
	t.Helper()
	var mu sync.Mutex
	var keys []string
	r := NewRunner(Settings{Cores: 8, TargetReads: 200, Seed: 42, Workers: 2, OnCell: func(key string) {
		mu.Lock()
		defer mu.Unlock()
		keys = append(keys, key)
	}})
	var fired [][]string
	for _, f := range figs {
		if _, err := f(r); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		fired, keys = append(fired, keys), nil
		mu.Unlock()
	}
	return r, fired
}

// TestFigure10SharesTheRegenerationsMemo: Figure 10's 8-core cells are
// Figure 3's, so after Figure 3 it simulates only its 4- and 2-core cells.
func TestFigure10SharesTheRegenerationsMemo(t *testing.T) {
	_, fired := runLogged(t, Figure3, Figure10)
	fig3 := map[string]bool{}
	for _, k := range fired[0] {
		fig3[k] = true
	}
	for _, k := range fired[1] {
		if fig3[k] || strings.Contains(k, " cores:8 ") {
			t.Errorf("Figure 10 re-simulated an 8-core cell: %s", k)
		}
	}
	// 10 rate mixes x (Baseline + 3 schemes) at each of 4 and 2 cores.
	if n := len(fired[1]); n != 80 {
		t.Errorf("Figure 10 simulated %d cells after Figure 3, want 80", n)
	}
}

// TestFigure5ReusesMinimumTurnTPCells: Figure 3's TP cells leave the turn
// 0, which runs the mode's minimum, so Figure 5's columns at the minimum
// turns simulate nothing after Figure 3.
func TestFigure5ReusesMinimumTurnTPCells(t *testing.T) {
	r, fired := runLogged(t, Figure3, Figure5)
	suite, err := r.suite()
	if err != nil {
		t.Fatal(err)
	}
	minimum := map[string]bool{}
	for _, mix := range suite {
		for _, tp := range []struct {
			kind sim.SchedulerKind
			mode sched.TPMode
		}{{sim.TPBank, sched.TPBankPartitioned}, {sim.TPNone, sched.TPNoPartitioning}} {
			cfg, _ := r.configFor(Spec{Mix: mix, Kind: tp.kind})
			cfg.TPTurnLength = tp.mode.MinTurnLength(cfg.DRAM)
			minimum[MemoKey(cfg)] = true
		}
	}
	for _, k := range fired[1] {
		if minimum[k] {
			t.Errorf("Figure 5 re-simulated a minimum-turn TP cell: %s", k)
		}
	}
	// 12 mixes x the two longer turns of each mode.
	if n := len(fired[1]); n != 48 {
		t.Errorf("Figure 5 simulated %d cells after Figure 3, want 48", n)
	}
}

// TestExportTracesListsFigure10Cells: Figure 10's cells at every core
// count land in the runner's memo, so the trace export lists them.
func TestExportTracesListsFigure10Cells(t *testing.T) {
	r := NewRunner(Settings{Cores: 8, TargetReads: 200, Seed: 42, Workers: 2,
		Observe: &obs.Options{TraceCap: 64}})
	if _, err := Figure10(r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	perCores := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, `{"cell":`) {
			continue
		}
		for _, c := range []string{"8", "4", "2"} {
			if strings.Contains(line, " cores:"+c+" ") {
				perCores[c]++
			}
		}
	}
	// (Baseline + 3 schemes) x 12 mixes at 8 cores and 10 at 4 and 2.
	want := map[string]int{"8": 48, "4": 40, "2": 40}
	for c, n := range want {
		if perCores[c] != n {
			t.Errorf("export lists %d cells at %s cores, want %d", perCores[c], c, n)
		}
	}
}
