package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json fixes for each mode.
func declared(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	return names(doc.Workloads), names(doc.EndToEnd), names(doc.PerLayer)
}

func metricNames(rep *report) []string {
	var out []string
	for k := range rep.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload runs one shortened unit through its full check pass and
// reports exactly the end-to-end metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	names, endToEnd, _ := declared(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(have)
	if strings.Join(have, ",") != strings.Join(names, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, names)
	}
	start := time.Now()
	for _, w := range workloads {
		rep, err := runWorkload(context.Background(), w, options{seed: 3, short: true, setups: 1}, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d problems=%v", w.name, rep.Correct, rep.Attempted, rep.problems)
		}
		if got := metricNames(rep); strings.Join(got, ",") != strings.Join(endToEnd, ",") {
			t.Errorf("%s reports %v, BENCHMARK.json declares %v", w.name, got, endToEnd)
		}
	}
	t.Logf("all workloads in %v", time.Since(start))
}

// A traced run reports exactly the declared per-layer metrics, and its
// profile shares cover the whole profile.
func TestSmokeTraced(t *testing.T) {
	_, _, perLayer := declared(t)
	w, _ := workloadByName("baseline-reads")
	rep, err := runWorkload(context.Background(), w, options{seed: 3, short: true, trace: true, seconds: 0.5, out: t.TempDir()}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("problems: %v", rep.problems)
	}
	if got := metricNames(rep); strings.Join(got, ",") != strings.Join(perLayer, ",") {
		t.Errorf("traced run reports %v, BENCHMARK.json declares %v", got, perLayer)
	}
	sum := 0.0
	for name, m := range rep.Metrics {
		if strings.HasSuffix(name, "self_frac") || strings.HasPrefix(name, "runtime.") && strings.HasSuffix(name, "_frac") {
			sum += m.Value
		}
	}
	if rep.all["sched.self_frac"].n > 0 && math.Abs(sum-1) > 0.02 {
		t.Errorf("profile shares sum to %v", sum)
	}
}

// The golden check is live: the committed hashes pass at the default seed,
// and a corrupted one makes the benchmark exit non-zero.
func TestCorruptedGoldenFails(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	o := options{workload: "baseline-reads", seed: defaultSeed, setups: 1}
	if code := runWith(o, golden, io.Discard, io.Discard); code != 0 {
		t.Fatalf("committed golden: exit %d, want 0", code)
	}
	golden["baseline-reads"] = strings.Repeat("0", 64)
	var stderr strings.Builder
	if code := runWith(o, golden, io.Discard, &stderr); code == 0 {
		t.Fatal("corrupted golden: exit 0")
	}
	if !strings.Contains(stderr.String(), "golden") {
		t.Errorf("stderr does not name the golden mismatch: %s", stderr.String())
	}
}
