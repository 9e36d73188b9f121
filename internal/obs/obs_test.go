package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fsmem/internal/dram"
)

// TestNilTracerIsSafe exercises every recording method on a nil tracer —
// the disabled fast path every instrumentation site relies on.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Command(dram.Command{Kind: dram.KindActivate}, 1, false)
	tr.Enqueue(0, dram.Address{}, 2)
	tr.FirstCommand(0, dram.Address{}, 3, 1, false)
	tr.Complete(EvDeliver, 0, dram.Address{}, 4, 2)
	tr.DummySlot(0, 5, SlotDummy)
	tr.QueueFull(0, 6, true)
	if tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer accumulated state")
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(&Options{TraceCap: 4})
	for i := 0; i < 10; i++ {
		tr.Command(dram.Command{Kind: dram.KindActivate, Row: i}, int64(i), false)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want ring cap 4", len(ev))
	}
	// The ring keeps the tail: cycles 6..9 in recording order.
	for i, e := range ev {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d", i, e.Cycle, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	tr.Command(dram.Command{Kind: dram.KindActivate, Rank: 1, Bank: 2, Row: 3, Domain: 0}, 10, false)
	tr.Command(dram.Command{Kind: dram.KindReadAP, Rank: 1, Bank: 2, Col: 4, Domain: 0}, 21, true)
	tr.Enqueue(1, dram.Address{Rank: 0, Bank: 5, Row: 6, Col: 7}, 22)
	tr.FirstCommand(1, dram.Address{Rank: 0, Bank: 5, Row: 6, Col: 7}, 30, 8, true)
	tr.Complete(EvDeliver, 1, dram.Address{Rank: 0, Bank: 5, Row: 6, Col: 7}, 44, 22)
	tr.DummySlot(0, 45, SlotRefresh)
	tr.QueueFull(1, 46, false)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	build := func() *bytes.Buffer {
		tr := NewTracer(nil)
		tr.Command(dram.Command{Kind: dram.KindActivate, Rank: 1, Row: 3}, 10, false)
		tr.Complete(EvDeliver, 0, dram.Address{Bank: 2}, 20, 10)
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Fatal("identical tracers serialized to different bytes")
	}
}

func TestReadJSONLRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"unknown kind":    "{\"fsmem_trace\":1,\"events\":1,\"dropped\":0}\n{\"c\":1,\"k\":\"bogus\"}\n",
		"unknown command": "{\"fsmem_trace\":1,\"events\":1,\"dropped\":0}\n{\"c\":1,\"k\":\"cmd\",\"cmd\":\"XYZ\"}\n",
		"bad version":     "{\"fsmem_trace\":9,\"events\":0,\"dropped\":0}\n",
		"empty":           "",
		"garbage":         "{\"fsmem_trace\":1,\"events\":1,\"dropped\":0}\nnot json\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupted trace parsed without error", name)
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr := NewTracer(nil)
	tr.Command(dram.Command{Kind: dram.KindActivate, Rank: 1, Row: 3}, 10, true)
	tr.Complete(EvDeliver, 0, dram.Address{Bank: 2}, 20, 10)
	tr.DummySlot(1, 30, SlotPowerDown)
	tr.QueueFull(0, 50, true)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("chrome export has %d events, want 4", len(events))
	}
	for _, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("chrome event missing %q: %v", key, e)
			}
		}
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Source("mid", SourceFunc(func(emit func(string, float64)) {
		emit("b", 2)
		emit("a", 1)
	}))
	reg.Source("", SourceFunc(func(emit func(string, float64)) {
		emit("zeta", 3)
		emit("alpha", 1.5)
	}))

	s := reg.Snapshot()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Name < s[j].Name }) {
		t.Fatalf("snapshot not sorted: %v", s)
	}
	for name, want := range map[string]float64{
		"zeta":  3,
		"alpha": 1.5,
		"mid.a": 1,
		"mid.b": 2,
	} {
		got, ok := s.Get(name)
		if !ok {
			t.Fatalf("snapshot missing %q: %v", name, s)
		}
		if got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Source("s", SourceFunc(func(func(string, float64)) {}))
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

// TestProfileFlags drives the shared profiling flags the way a command
// does: register, parse, start, stop. Each named profile must be written,
// and no flag set means no profiler.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	start := ProfileFlags(fs, "cmd")
	paths := map[string]string{}
	var args []string
	for _, name := range []string{"cpuprofile", "memprofile", "exectrace"} {
		paths[name] = filepath.Join(dir, name)
		args = append(args, "-"+name, paths[name])
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for name, p := range paths {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("-%s wrote no profile to %s (%v)", name, p, err)
		}
	}

	off := flag.NewFlagSet("cmd", flag.ContinueOnError)
	start = ProfileFlags(off, "cmd")
	if err := off.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if stop, err = start(); err != nil {
		t.Fatal(err)
	}
	stop()
}
