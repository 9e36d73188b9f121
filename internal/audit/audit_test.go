package audit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/fsmerr"
	"fsmem/internal/sim"
)

// fastOpts keeps unit-test campaigns small; the full-size defaults run in
// CI's audit-smoke job.
func fastOpts() Options {
	return Options{
		Domains:      4,
		Bits:         8,
		Seeds:        2,
		Permutations: 49,
		Rounds:       1,
		Seed:         42,
	}
}

// The determinism contract the whole integration rests on: same options,
// any worker count, byte-identical certificate — and the bytes themselves
// are pinned, so a change to what the campaign measures cannot pass by
// moving every worker count alike.
func TestCertificateByteIdentityAcrossWorkers(t *testing.T) {
	const pinned = "ca20a7c50782ca38c8a86fee4f6940a4111c348e27436ecaa3307cf27a2a1df6"
	var want []byte
	for _, j := range []int{1, 4, 8} {
		o := fastOpts()
		o.Workers = j
		cert, err := Run(context.Background(), sim.FSNoPart, o)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		b, err := MarshalCertificate(cert)
		if err != nil {
			t.Fatalf("j=%d: marshal: %v", j, err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("j=%d: certificate differs from j=1:\n%s\nvs\n%s", j, b, want)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != pinned {
		t.Errorf("FS_NP certificate drifted:\n got %s\nwant %s\n%s", got, pinned, want)
	}
}

func TestBaselineCertifiesLeaky(t *testing.T) {
	cert, err := Run(context.Background(), sim.Baseline, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictLeaky {
		t.Fatalf("baseline verdict %s, want LEAKY (stats %+v)", cert.Verdict, cert.Stats)
	}
	if d := cert.Stats.BitErrorRate; d > 0.1 {
		t.Errorf("baseline best attack BER %.3f, want decisively decodable (< 0.1 after polarity calibration)", d)
	}
	if cert.CapacityBitsPerSec <= 0 {
		t.Errorf("leaky channel reports zero capacity")
	}
	if cert.MonitorViolations != 0 {
		t.Errorf("clean baseline audit saw %d monitor violations", cert.MonitorViolations)
	}
	b, err := MarshalCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), "86f8e30292aec01d8b1eed3633eac5f86db6ca783e5163675e526640283cd82d"; got != want {
		t.Errorf("Baseline certificate drifted:\n got %s\nwant %s\n%s", got, want, b)
	}
}

func TestFSVariantsCertifySecure(t *testing.T) {
	for _, k := range []sim.SchedulerKind{sim.FSNoPart, sim.FSNoPartTriple} {
		cert, err := Run(context.Background(), k, fastOpts())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if cert.Verdict != VerdictSecure {
			t.Fatalf("%v verdict %s, want SECURE (stats %+v)", k, cert.Verdict, cert.Stats)
		}
		if cert.Stats.BitErrorRate != 0.5 {
			t.Errorf("%v: BER %.4f, want exactly 0.5 from a balanced message on a silent channel", k, cert.Stats.BitErrorRate)
		}
		if cert.Stats.MIPValue != 1 || cert.Stats.KSPValue != 1 {
			t.Errorf("%v: p-values (%.3f, %.3f), want exactly 1 for identical observables", k, cert.Stats.MIPValue, cert.Stats.KSPValue)
		}
		if cert.CapacityBitsPerSec != 0 {
			t.Errorf("%v: capacity %.1f, want 0", k, cert.CapacityBitsPerSec)
		}
	}
}

// The fabric-level security claim, certified both ways: interleaved
// routing shares every channel across domains, so a Baseline scheduler
// on a 2-channel fabric still leaks; colored routing dedicates channels
// to domain blocks, so FS composes to a SECURE multi-channel system.
func TestFabricRoutingVerdicts(t *testing.T) {
	o := fastOpts()
	o.Channels = 2
	o.Routing = addr.RouteInterleaved
	cert, err := Run(context.Background(), sim.Baseline, o)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictLeaky {
		t.Fatalf("interleaved baseline verdict %s, want LEAKY (stats %+v)", cert.Verdict, cert.Stats)
	}
	if cert.Channels != 2 || cert.Routing != "interleaved" {
		t.Errorf("certificate fabric fields: channels=%d routing=%q", cert.Channels, cert.Routing)
	}

	o = fastOpts()
	o.Channels = 2
	o.Routing = addr.RouteColored
	cert, err = Run(context.Background(), sim.FSRankPart, o)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictSecure {
		t.Fatalf("colored FS verdict %s, want SECURE (stats %+v)", cert.Verdict, cert.Stats)
	}
	if cert.Channels != 2 || cert.Routing != "colored" {
		t.Errorf("certificate fabric fields: channels=%d routing=%q", cert.Channels, cert.Routing)
	}
}

// Single-channel certificates must not grow fabric fields: the JSON bytes
// are pinned by CI diffs against pre-fabric archives.
func TestSingleChannelCertificateOmitsFabric(t *testing.T) {
	cert, err := Run(context.Background(), sim.FSNoPart, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"channels"`)) || bytes.Contains(b, []byte(`"routing"`)) {
		t.Fatalf("single-channel certificate carries fabric fields:\n%s", b)
	}
}

// Anti-vacuity: the auditor must FAIL a Fixed Service run whose premises
// are broken by an injected timing fault, not certify it SECURE.
func TestFaultInjectedFSFailsCertification(t *testing.T) {
	o := fastOpts()
	o.FaultPlan = "derate-trcd"
	o.FaultSeed = 7
	cert, err := Run(context.Background(), sim.FSNoPart, o)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictFail {
		t.Fatalf("fault-injected FS verdict %s, want FAIL", cert.Verdict)
	}
	if cert.MonitorViolations == 0 {
		t.Fatal("fault-injected FS reported zero monitor violations")
	}
	if cert.Fault != "derate-trcd" {
		t.Errorf("certificate fault field %q", cert.Fault)
	}
}

func TestUnknownFaultPlanRejected(t *testing.T) {
	o := fastOpts()
	o.FaultPlan = "no-such-plan"
	_, err := Run(context.Background(), sim.FSNoPart, o)
	if fsmerr.CodeOf(err) != fsmerr.CodeConfig {
		t.Fatalf("unknown fault plan: error %v, want CodeConfig", err)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{Domains: 1, Bits: 8, Seeds: 1, Permutations: 49, WindowBusCycles: 4096},
		{Domains: 4, Bits: 8, Seeds: 1, Permutations: 5, WindowBusCycles: 4096},
		{Domains: 4, Bits: 8, Seeds: 1, Permutations: 49, WindowBusCycles: -1},
		{Domains: 4, Bits: 8, Seeds: 1, Permutations: 49, WindowBusCycles: 4096, Rounds: -1},
	}
	for i, o := range cases {
		if _, err := Run(context.Background(), sim.FSNoPart, o); fsmerr.CodeOf(err) != fsmerr.CodeConfig {
			t.Errorf("case %d: error %v, want CodeConfig", i, err)
		}
	}
}

func TestMessageBalancedAndDeterministic(t *testing.T) {
	a, b := Message(16, 9), Message(16, 9)
	ones := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different messages")
		}
		if a[i] {
			ones++
		}
	}
	if ones != 8 {
		t.Fatalf("message has %d ones out of 16, want 8", ones)
	}
}

func TestCapacityBounds(t *testing.T) {
	if c := Capacity(0, 10_000, 800e6); c != 80_000 {
		t.Errorf("perfect channel capacity %.1f, want 80000", c)
	}
	if c := Capacity(1, 10_000, 800e6); c != 80_000 {
		t.Errorf("inverted channel capacity %.1f, want 80000", c)
	}
	if c := Capacity(0.5, 10_000, 800e6); c != 0 {
		t.Errorf("coin-flip capacity %.2f, want 0", c)
	}
	if c := Capacity(0.1, 0, 800e6); c != 0 {
		t.Errorf("zero window capacity %.2f, want 0", c)
	}
}

// The neighborhood generator must stay in bounds and produce stable
// names regardless of how often it is called.
func TestNeighborsBoundedAndStable(t *testing.T) {
	base := Library(DefaultWindow)[0]
	n1, n2 := Neighbors(base, DefaultWindow), Neighbors(base, DefaultWindow)
	if len(n1) == 0 || len(n1) != len(n2) {
		t.Fatalf("neighbor counts %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i].Name != n2[i].Name {
			t.Fatalf("neighbor %d name %q vs %q", i, n1[i].Name, n2[i].Name)
		}
		if n1[i].WindowBusCycles < minWindow || n1[i].WindowBusCycles > DefaultWindow*maxWindowMul {
			t.Errorf("neighbor %q window %d out of bounds", n1[i].Name, n1[i].WindowBusCycles)
		}
		if err := n1[i].On.Validate(); err != nil {
			t.Errorf("neighbor %q On profile invalid: %v", n1[i].Name, err)
		}
		if err := n1[i].Probe.Validate(); err != nil {
			t.Errorf("neighbor %q Probe profile invalid: %v", n1[i].Name, err)
		}
	}
}

func TestMetricsAccumulate(t *testing.T) {
	o := fastOpts()
	o.Workers = 1 // serial so the progress counter needs no locking
	var m Metrics
	o.Metrics = &m
	progress := 0
	o.Progress = func(stage string, done, total int) { progress++ }
	if _, err := Run(context.Background(), sim.FSNoPart, o); err != nil {
		t.Fatal(err)
	}
	if m.AttacksEvaluated.Load() == 0 || m.WindowsSimulated.Load() == 0 || m.CertifyRuns.Load() != 2 {
		t.Errorf("metrics did not accumulate: %+v", map[string]int64{
			"attacks": m.AttacksEvaluated.Load(), "windows": m.WindowsSimulated.Load(), "certify": m.CertifyRuns.Load()})
	}
	// Every evaluation sends the balanced message, so it simulates one
	// window per bit value, whatever the message length.
	if got, want := m.WindowsSimulated.Load(), 2*(m.AttacksEvaluated.Load()+m.CertifyRuns.Load()); got != want {
		t.Errorf("windows simulated = %d, want %d: two per evaluation", got, want)
	}
	if progress == 0 {
		t.Error("progress callback never fired")
	}
}

// TestRunStopsPromptlyOnCancel: canceling a campaign stops the covert
// windows in flight, so Run returns CodeCanceled within one simulation
// poll rather than after every running attack's windows. An evaluation
// simulates one window per bit value, so the window is long enough that one
// simulation alone outlasts the 1 s bound (about 3.6 s on a 2-vCPU host):
// a window that ignored the cancellation would fail the test, while a
// working one costs only the 200 ms before the cancel.
func TestRunStopsPromptlyOnCancel(t *testing.T) {
	o := Options{Domains: 4, Bits: 256, WindowBusCycles: 100_000_000, Workers: 2, Seed: 42}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceledAt := make(chan time.Time, 1)
	time.AfterFunc(200*time.Millisecond, func() {
		cancel()
		canceledAt <- time.Now()
	})
	_, err := Run(ctx, sim.FSNoPart, o)
	stopped := time.Since(<-canceledAt)
	if fsmerr.CodeOf(err) != fsmerr.CodeCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("want a CodeCanceled error wrapping context.Canceled, got %v", err)
	}
	if stopped > time.Second {
		t.Errorf("Run returned %v after the cancellation, want within 1s", stopped.Round(time.Millisecond))
	}
}
