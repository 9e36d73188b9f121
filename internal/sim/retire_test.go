package sim

import (
	"context"
	"fmt"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/workload"
)

// TestRetireToMatchesStepLoop: RetireTo returns the clock at which a loop
// of Step and DomainInstructions, run for at least one bus cycle, first
// reads at least n retired instructions, for a domain in either lane of a
// colored fabric and on an interleaved one; targets the domain has already
// reached still cost one bus cycle. On a colored fabric the other lane
// does not move.
func TestRetireToMatchesStepLoop(t *testing.T) {
	mix, err := workload.Rate("mcf", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range []addr.Routing{addr.RouteColored, addr.RouteInterleaved} {
		for _, domain := range []int{0, 5} {
			t.Run(fmt.Sprintf("%v/domain%d", routing, domain), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(mix, Baseline)
				cfg.TargetReads = 0
				cfg.Channels, cfg.Routing = 2, routing
				var sys [2]*System
				for i := range sys {
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sys[i] = s
				}
				ref, kern := sys[0], sys[1]
				l, _, _ := kern.domainCore(domain)
				for _, n := range []int64{0, 3000, 3000, 3001, 20_000} {
					clock, ok := kern.RetireTo(context.Background(), domain, n, 1_000_000)
					ref.Step()
					for ref.DomainInstructions(domain) < n {
						ref.Step()
					}
					refLane, _, _ := ref.domainCore(domain)
					if !ok || clock != refLane.clock || clock != l.clock {
						t.Fatalf("RetireTo(%d) = %d, %v (lane at %d); the step loop reaches it at %d", n, clock, ok, l.clock, refLane.clock)
					}
					if a, b := kern.DomainInstructions(domain), ref.DomainInstructions(domain); a != b {
						t.Fatalf("RetireTo(%d): %d retired, the step loop's %d", n, a, b)
					}
				}
				if routing == addr.RouteColored {
					if other := kern.lanes[1-domain/4]; other.clock != 0 {
						t.Errorf("the other lane advanced to %d", other.clock)
					}
				}
				limit := l.clock + 50
				if clock, ok := kern.RetireTo(context.Background(), domain, 1<<40, limit); ok || clock != limit {
					t.Errorf("an unreachable target returned %d, %v, want the limit %d and false", clock, ok, limit)
				}
			})
		}
	}
}
