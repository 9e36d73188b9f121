package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestProfileFoldsByLeafPackage(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"method", []string{"fsmem/internal/sched.(*Baseline).serve"}, "sched"},
		{"closure", []string{"fsmem/internal/sim.(*System).RunContext.func1"}, "sim"},
		{"generic", []string{"fsmem/internal/experiments.collect[go.shape.struct { fsmem/internal/sim.Result }].func2"}, "experiments"},
		{"generic in an unlisted package", []string{"fsmem/internal/parallel.Map[...]"}, "misc"},
		{"subpackage", []string{"fsmem/internal/server/client.(*Client).doOnce"}, "server"},
		{"generated equality", []string{"type:.eq.fsmem/internal/dram.Address"}, "dram"},
		{"the benchmark itself", []string{"main.replayTicks"}, "misc"},
		{"standard library", []string{"net/http.(*conn).serve"}, "stdlib"},
		{"malloc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "fsmem/internal/core.(*FS).insertPending"}, bucketMalloc},
		{"growslice", []string{"runtime.memmove", "runtime.growslice", "fsmem/internal/core.(*FS).insertPending"}, bucketMalloc},
		{"memclr leaf", []string{"runtime.memclrNoHeapPointers", "fsmem/internal/mem.(*Controller).Tick"}, bucketMalloc},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{"gc assist", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, bucketGC},
		{"runtime helper charged to caller", []string{"runtime.duffcopy", "fsmem/internal/sched.(*Baseline).serve"}, "sched"},
		{"syscall under net", []string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write"}, "stdlib"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, bucketRuntime},
	}
	for _, c := range cases {
		if got := sampleBucket(c.stack); got != c.want {
			t.Errorf("%s: %v folds into %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestFoldProfileSharesSumToOne(t *testing.T) {
	shares := foldProfile([]cpuSample{
		{30, []string{"fsmem/internal/sched.(*Baseline).serve"}},
		{10, []string{"runtime.mallocgc"}},
		{60, []string{"fsmem/internal/dram.(*Channel).Ready"}},
	})
	if len(shares) != len(profileLayers)+3 {
		t.Fatalf("%d buckets, want every layer plus 3 runtime buckets", len(shares))
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["sched"] != 0.3 || shares["dram"] != 0.6 {
		t.Errorf("shares %v", shares)
	}
}

var sink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += i * i
		}
	}
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("a CPU profile is already running:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.weight
		for _, fn := range s.stack {
			if fn == "fsmem/bench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if total <= 0 || !found {
		t.Fatalf("%d samples, %d ns total, spin found: %v", len(samples), total, found)
	}
	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
