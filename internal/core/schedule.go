package core

import (
	"fmt"
	"strings"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// TimedCommand is one issued command with its cycle, as observed on the
// command bus.
type TimedCommand struct {
	Cycle      int64
	Cmd        dram.Command
	Suppressed bool
}

// RecordPipeline runs the FS variant with every domain fully backlogged
// with the given per-domain request kind (writes[d] selects write vs read)
// for the given number of Q-cycle intervals, and returns every command it
// issued. It is the source for the Figure 1/2 diagrams and for the
// conflict-freedom proofs in the tests: the recorded stream can be replayed
// through an independent dram.Checker.
func RecordPipeline(p dram.Params, cfg Config, writes []bool, intervals int) ([]TimedCommand, *FS, error) {
	if len(writes) != cfg.Domains {
		return nil, nil, fmt.Errorf("core: writes pattern has %d entries for %d domains", len(writes), cfg.Domains)
	}
	fs, err := NewFS(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	ctl := mem.NewController(p, mem.DefaultConfig(cfg.Domains), fs)

	var recorded []TimedCommand
	ctl.Chan.OnIssue = func(cmd dram.Command, cycle int64, suppressed bool) {
		recorded = append(recorded, TimedCommand{Cycle: cycle, Cmd: cmd, Suppressed: suppressed})
	}

	// Keep every domain's queue saturated with requests spread across its
	// partition (rows vary so no two transactions coalesce; banks cycle so
	// triple alternation always finds an eligible group).
	row := 0
	refill := func() {
		for d := 0; d < cfg.Domains; d++ {
			space := fs.spaces[d]
			for len(ctl.ReadQ[d])+len(ctl.WriteQ[d]) < 8 {
				a := dram.Address{
					Rank: space.Ranks[row%len(space.Ranks)],
					Bank: space.Banks[row%len(space.Banks)],
					Row:  row % p.RowsPerBank,
				}
				row++
				if writes[d] {
					ctl.EnqueueWrite(d, a)
				} else {
					ctl.EnqueueRead(d, a, nil)
				}
			}
		}
	}

	total := fs.Q() * int64(intervals)
	for ctl.Cycle < total {
		refill()
		ctl.Tick()
	}
	return recorded, fs, nil
}

// VerifyPipeline replays a recorded command stream through an independent
// checker and returns its first violations, at most 32 (empty means
// provably conflict-free under the full DDR3 timing model).
func VerifyPipeline(p dram.Params, cmds []TimedCommand) []error {
	ck := dram.NewChecker(p)
	for _, tc := range cmds {
		ck.Feed(tc.Cmd, tc.Cycle)
	}
	return ck.Violations()
}

// RenderDiagram draws a Figure 1-style occupancy diagram of a cycle window:
// one lane per command class plus the data bus, one character column per
// cycle. Reads and writes are labeled with their rank.
func RenderDiagram(p dram.Params, cmds []TimedCommand, from, to int64) string {
	width := int(to - from)
	if width <= 0 {
		return ""
	}
	lanes := map[string][]byte{
		"ACT    ": blankLane(width),
		"COL-RD ": blankLane(width),
		"COL-WR ": blankLane(width),
		"DATA   ": blankLane(width),
	}
	mark := func(lane string, at int64, n int, ch byte) {
		row := lanes[lane]
		for i := 0; i < n; i++ {
			pos := at + int64(i) - from
			if pos >= 0 && pos < int64(width) {
				row[pos] = ch
			}
		}
	}
	for _, tc := range cmds {
		label := byte('0' + tc.Cmd.Rank%10)
		switch {
		case tc.Cmd.Kind == dram.KindActivate:
			mark("ACT    ", tc.Cycle, 1, label)
		case tc.Cmd.Kind.IsRead():
			mark("COL-RD ", tc.Cycle, 1, label)
			mark("DATA   ", tc.Cycle+int64(p.TCAS), p.TBURST, label)
		case tc.Cmd.Kind.IsWrite():
			mark("COL-WR ", tc.Cycle, 1, label)
			mark("DATA   ", tc.Cycle+int64(p.TCWD), p.TBURST, label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d (one column per memory cycle; digits are rank ids)\n", from, to)
	for _, lane := range []string{"ACT    ", "COL-RD ", "COL-WR ", "DATA   "} {
		b.WriteString(lane)
		b.WriteString("|")
		b.Write(lanes[lane])
		b.WriteString("|\n")
	}
	return b.String()
}

func blankLane(w int) []byte {
	row := make([]byte, w)
	for i := range row {
		row[i] = '.'
	}
	return row
}

// CommandBusConflicts counts cycles carrying more than one command — an
// explicit check of the paper's "a cycle can only accommodate one of the
// three commands" requirement.
func CommandBusConflicts(cmds []TimedCommand) int {
	seen := map[int64]int{}
	for _, tc := range cmds {
		seen[tc.Cycle]++
	}
	n := 0
	for _, k := range seen {
		if k > 1 {
			n += k - 1
		}
	}
	return n
}
