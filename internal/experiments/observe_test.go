package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fsmem/internal/obs"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// observedRunner runs a small grid with tracing on and exports it.
func observedRunner(t *testing.T, workers int) []byte {
	t.Helper()
	r := NewRunner(Settings{
		Cores: 2, TargetReads: 300, Seed: 42, Workers: workers,
		Observe: &obs.Options{TraceCap: 4096},
	})
	milc, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "milc-rate", Profiles: []workload.Profile{milc, milc}}
	specs := []Spec{
		{Mix: mix, Kind: sim.Baseline},
		{Mix: mix, Kind: sim.FSRankPart},
		{Mix: mix, Kind: sim.FSBankPart},
		{Mix: mix, Kind: sim.TPBank},
	}
	if _, err := r.Grid(specs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportTracesDeterministicAcrossWorkers is the observability layer's
// core determinism guarantee: the exported trace bytes are identical
// whether the grid was filled serially or by 4 or 8 pool workers.
func TestExportTracesDeterministicAcrossWorkers(t *testing.T) {
	ref := observedRunner(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty trace export")
	}
	for _, workers := range []int{4, 8} {
		got := observedRunner(t, workers)
		if !bytes.Equal(ref, got) {
			t.Fatalf("trace export differs between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestExportTracesCellOrderAndContent checks the export structure: one
// label line per cell in sorted key order, each followed by a JSONL trace.
func TestExportTracesCellOrderAndContent(t *testing.T) {
	out := string(observedRunner(t, 2))
	var labels []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `{"cell":`) {
			labels = append(labels, line)
		}
	}
	if len(labels) != 4 {
		t.Fatalf("got %d cell labels, want 4:\n%s", len(labels), strings.Join(labels, "\n"))
	}
	for i := 1; i < len(labels); i++ {
		if labels[i-1] >= labels[i] {
			t.Fatalf("cell labels not sorted: %q before %q", labels[i-1], labels[i])
		}
	}
	if !strings.Contains(out, `{"fsmem_trace":1,`) {
		t.Fatal("export contains no JSONL trace header")
	}
}

// TestObservedCellsCarryMetrics checks that observed runs produce metrics
// snapshots and traces without perturbing the simulation itself.
func TestObservedCellsCarryMetrics(t *testing.T) {
	milc, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "milc-rate", Profiles: []workload.Profile{milc, milc}}

	plain := NewRunner(Settings{Cores: 2, TargetReads: 300, Seed: 42, Workers: 1})
	observed := NewRunner(Settings{Cores: 2, TargetReads: 300, Seed: 42, Workers: 1,
		Observe: &obs.Options{}})

	cell := []Spec{{Mix: mix, Kind: sim.FSRankPart}}
	plainRes, err := plain.Grid(cell)
	if err != nil {
		t.Fatal(err)
	}
	observedRes, err := observed.Grid(cell)
	if err != nil {
		t.Fatal(err)
	}
	p, o := plainRes[0], observedRes[0]
	if p.Trace != nil || p.Metrics != nil {
		t.Fatal("unobserved run carries observability state")
	}
	if o.Trace == nil || len(o.Metrics) == 0 {
		t.Fatal("observed run missing trace or metrics")
	}
	if p.Run.BusCycles != o.Run.BusCycles {
		t.Fatalf("observation changed the simulation: %d vs %d bus cycles",
			p.Run.BusCycles, o.Run.BusCycles)
	}
	cycles, ok := o.Metrics.Get("sim.bus_cycles")
	if !ok || int64(cycles) != o.Run.BusCycles {
		t.Fatalf("sim.bus_cycles metric %v (ok=%v), want %d", cycles, ok, o.Run.BusCycles)
	}
	if n, _ := o.Metrics.Get("dram.reads"); n == 0 {
		t.Fatal("dram.reads metric is zero after a 300-read run")
	}
}
