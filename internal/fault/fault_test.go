package fault

import (
	"reflect"
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/trace"
)

func TestInjectorFiresEachFaultOnce(t *testing.T) {
	plan := &Plan{
		Name: "once",
		Commands: []CommandFault{
			{AtCycle: 100, Kinds: []dram.Kind{dram.KindActivate}, Action: ActionDrop},
		},
	}
	in := NewInjector(plan, dram.DDR3_1600())
	act := dram.Command{Kind: dram.KindActivate, Rank: 0, Bank: 1, Domain: 2}

	if d, _ := in.Decide(act, 50); d != Pass {
		t.Fatal("fault fired before AtCycle")
	}
	if d, _ := in.Decide(dram.Command{Kind: dram.KindRead, Domain: 0}, 150); d != Pass {
		t.Fatal("fault fired on a non-matching kind")
	}
	if d, _ := in.Decide(act, 200); d != Drop {
		t.Fatal("matching command past AtCycle not dropped")
	}
	if d, _ := in.Decide(act, 300); d != Pass {
		t.Fatal("single-shot fault fired twice")
	}
	if in.Stats.Drops != 1 {
		t.Errorf("Drops = %d, want 1", in.Stats.Drops)
	}
	if got := in.FaultedDomains(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("FaultedDomains = %v, want [2]", got)
	}
	if in.Active() {
		t.Error("injector still active with every fault fired and nothing queued")
	}
}

func TestInjectorDelayAndReplay(t *testing.T) {
	plan := &Plan{
		Commands: []CommandFault{
			{AtCycle: 10, Action: ActionDelay}, // Delay 0 clamps to 1
			{AtCycle: 10, Action: ActionDuplicate, Delay: 5},
		},
	}
	in := NewInjector(plan, dram.DDR3_1600())
	cmd := dram.Command{Kind: dram.KindRead, Domain: 1}

	d, at := in.Decide(cmd, 20)
	if d != Delay || at != 21 {
		t.Fatalf("Decide = %v at %d, want Delay at 21 (Delay<1 clamps to 1)", d, at)
	}
	in.AddReplay(cmd, at)

	d, at = in.Decide(cmd, 30)
	if d != Duplicate || at != 35 {
		t.Fatalf("Decide = %v at %d, want Duplicate at 35", d, at)
	}
	in.AddReplay(cmd, at)

	if due := in.Due(20); len(due) != 0 {
		t.Fatalf("Due(20) popped %d commands before their cycle", len(due))
	}
	if due := in.Due(21); len(due) != 1 || due[0].Cycle != 21 {
		t.Fatalf("Due(21) = %v, want the delayed command", due)
	}
	if due := in.Due(100); len(due) != 1 || due[0].Cycle != 35 {
		t.Fatalf("Due(100) = %v, want the duplicate", due)
	}
	if in.Stats.Delays != 1 || in.Stats.Duplicates != 1 {
		t.Errorf("stats = %+v, want one delay and one duplicate", in.Stats)
	}
}

func TestInjectorRefreshStormExpansion(t *testing.T) {
	p := dram.DDR3_1600()
	plan := &Plan{
		Loads: []LoadFault{{Kind: LoadRefreshStorm, Rank: 1, AtCycle: 500, Count: 3}},
	}
	in := NewInjector(plan, p)
	if !in.Active() {
		t.Fatal("injector with pending extras reports inactive")
	}
	due := in.Due(500 + 10*int64(p.TRFC+p.TRP))
	if len(due) != 3 {
		t.Fatalf("storm expanded to %d REFs, want 3", len(due))
	}
	spacing := int64(p.TRFC + p.TRP)
	for i, tc := range due {
		if tc.Cmd.Kind != dram.KindRefresh || tc.Cmd.Rank != 1 || tc.Cmd.Domain != dram.NoDomain {
			t.Errorf("extra %d = %+v, want an unattributed REF to rank 1", i, tc.Cmd)
		}
		if want := 500 + int64(i)*spacing; tc.Cycle != want {
			t.Errorf("extra %d at cycle %d, want %d (tRFC+tRP spacing)", i, tc.Cycle, want)
		}
	}
	if in.Stats.Extras != 3 {
		t.Errorf("Extras = %d, want 3", in.Stats.Extras)
	}
	if in.Active() {
		t.Error("drained storm still reports active")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(&Plan{Name: "zero"}, dram.DDR3_1600())
	if in.Active() {
		t.Fatal("zero plan must be inert")
	}
	if d, _ := in.Decide(dram.Command{Kind: dram.KindActivate}, 1000); d != Pass {
		t.Fatal("zero plan perturbed a command")
	}
}

func TestPlanTargetDomains(t *testing.T) {
	plan := &Plan{Loads: []LoadFault{
		{Kind: LoadJitter, Domain: 1, Magnitude: 100},
		{Kind: LoadQueueSpike, Domain: 3, Count: 8},
		{Kind: LoadRefreshStorm, Rank: 0, Count: 2}, // domain-neutral: no target
	}}
	got := plan.TargetDomains()
	if !reflect.DeepEqual(got, map[int]bool{1: true, 3: true}) {
		t.Errorf("TargetDomains = %v, want {1,3}", got)
	}
}

func TestCampaignPlansDeterministic(t *testing.T) {
	a := CampaignPlans(4, 7)
	b := CampaignPlans(4, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (domains, seed) produced different campaign plans")
	}
	names := map[string]bool{}
	for _, p := range a {
		if names[p.Name] {
			t.Errorf("duplicate plan name %q", p.Name)
		}
		names[p.Name] = true
	}
	if len(a) < 8 {
		t.Errorf("campaign has only %d plans; all three fault layers should be covered", len(a))
	}
	// Single-domain configs must still get valid (self-targeting) plans.
	for _, p := range CampaignPlans(1, 7) {
		for _, l := range p.Loads {
			if l.Domain != 0 {
				t.Errorf("plan %s targets domain %d of a 1-domain config", p.Name, l.Domain)
			}
		}
	}
}

type fixedStream struct{ gap int }

func (f fixedStream) Next() trace.Ref { return trace.Ref{Gap: f.gap} }

func TestJitterStreamShiftsOnlyTargets(t *testing.T) {
	plan := &Plan{Seed: 9, Loads: []LoadFault{{Kind: LoadJitter, Domain: 1, Magnitude: 50}}}

	if s := plan.StreamFor(0, fixedStream{gap: 3}); s.Next().Gap != 3 {
		t.Fatal("jitter leaked into an untargeted domain")
	}

	jittered := plan.StreamFor(1, fixedStream{gap: 3})
	grew, n := 0, 200
	for i := 0; i < n; i++ {
		if jittered.Next().Gap > 3 {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("jittered stream never inflated a gap")
	}

	// Determinism: same plan, same domain, same draws.
	x, y := plan.StreamFor(1, fixedStream{gap: 3}), plan.StreamFor(1, fixedStream{gap: 3})
	for i := 0; i < 100; i++ {
		if x.Next() != y.Next() {
			t.Fatal("jitter streams with identical seeds diverged")
		}
	}
}

// TestMonitorCountsPastViolationCap: every shadow-checker rejection counts
// toward TimingViolations, while the checker and the report each store only
// their first 32 errors.
func TestMonitorCountsPastViolationCap(t *testing.T) {
	m := NewMonitor(dram.DDR3_1600(), 1)
	const n = 10000
	bad := dram.Command{Kind: dram.KindRead, Rank: 0, Bank: 0, Domain: 0} // the bank is closed
	for i := 0; i < n; i++ {
		m.Applied(bad, int64(i), false)
	}
	rep := m.Finalize(nil)
	if rep.TimingViolations != n {
		t.Errorf("TimingViolations = %d, want %d", rep.TimingViolations, n)
	}
	if got := len(rep.Violations); got > maxStoredViolations {
		t.Errorf("report stored %d violations, want at most %d", got, maxStoredViolations)
	}
	if got := len(m.checker.Violations()); got > maxStoredViolations {
		t.Errorf("checker stored %d violations, want at most %d", got, maxStoredViolations)
	}
}
