package sim

import (
	"fmt"
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/workload"
)

// TestStreamsPassReferenceChecker replays every scheduler family's bus
// stream through dram.ReferenceChecker, the brute-force timing model that
// shares only Params with the dram.Channel the controllers issue through:
// the Baseline with and without refresh, both TP variants and FS_RP with
// its refresh windows, on DDR3 and DDR4. The reference must accept every
// command. Together the runs must issue every kind the channel models and
// no other, so the model states no command the controllers never issue.
func TestStreamsPassReferenceChecker(t *testing.T) {
	mix, err := workload.Rate("milc", 4)
	if err != nil {
		t.Fatal(err)
	}
	issued := map[dram.Kind]int{}
	for _, p := range []dram.Params{dram.DDR3_1600(), dram.DDR4_2400()} {
		for _, tc := range []struct {
			k       SchedulerKind
			refresh bool
		}{{Baseline, false}, {Baseline, true}, {TPBank, false}, {TPNone, false}, {FSRankPart, true}} {
			cfg := DefaultConfig(mix, tc.k)
			cfg.DRAM = p
			cfg.RefreshEnabled = tc.refresh
			cfg.TargetReads = 1000
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := dram.NewReferenceChecker(p)
			n := 0
			var rejected error
			s.Controller().Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
				if rejected != nil {
					return
				}
				if err := ref.Check(cmd, cycle); err != nil {
					rejected = fmt.Errorf("command %d: %w", n, err)
					return
				}
				ref.Apply(cmd, cycle)
				issued[cmd.Kind]++
				n++
			}
			s.Run()
			if rejected != nil {
				t.Errorf("%v (bank groups %d, refresh %v): %v", tc.k, p.BankGroups, tc.refresh, rejected)
			}
		}
	}
	// The channel's kinds are those with a mnemonic.
	for k := dram.Kind(0); k < 16; k++ {
		modeled := k.String() != fmt.Sprintf("Kind(%d)", k)
		if modeled != (issued[k] > 0) {
			t.Errorf("%v: modeled %v, issued %d times", k, modeled, issued[k])
		}
	}
}
