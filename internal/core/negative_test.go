package core

import (
	"errors"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/mem"
)

// The conflict-freedom results are only meaningful if the validators would
// actually catch a broken schedule. These tests inject known-infeasible
// spacings and verify the machinery rejects them loudly.

// TestInfeasibleSpacingIsCaught runs FS_RP at l=6 — infeasible per
// Equation 1 (6 equals the ACT-read/ACT-write command-offset difference) —
// and requires the engine to report the resulting command-bus collision as
// a structured violation, both on its own counter and through the runtime
// monitor. Each stored violation must carry the channel's explanation of
// the refusal: a timing error wrapping the channel's TimingError for the
// planned command at its planned cycle, ready only after it.
func TestInfeasibleSpacingIsCaught(t *testing.T) {
	p := paperParams()
	if ok, _ := Feasible(6, FixedData, addr.PartitionRank, p); ok {
		t.Fatal("l=6 should be infeasible (Equation 1)")
	}
	fs, err := NewFS(p, Config{Variant: FSRankPart, Domains: 8, Seed: 1, L: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctl := mem.NewController(p, mem.DefaultConfig(8), fs)
	mon := fault.NewMonitor(p, 8)
	ctl.AttachMonitor(mon)
	// Mixed reads and writes provoke the colliding offsets.
	for d := 0; d < 8; d++ {
		for i := 0; i < 4; i++ {
			a := dram.Address{Rank: d, Bank: i, Row: i + 1}
			if d%2 == 0 {
				ctl.EnqueueRead(d, a, nil)
			} else {
				ctl.EnqueueWrite(d, a)
			}
		}
	}
	for ctl.Cycle < fs.Q()*4 {
		ctl.Tick()
	}
	if fs.Violations == 0 {
		t.Fatal("engine accepted an infeasible l=6 schedule without reporting a timing violation")
	}
	rep := mon.Finalize(nil)
	if rep.SchedulerViolations == 0 {
		t.Fatal("monitor never received the scheduler's violation report")
	}
	if rep.Ok() {
		t.Fatal("monitor report for a broken schedule must not be clean")
	}
	if len(rep.Violations) == 0 {
		t.Fatal("monitor stored no violation")
	}
	for i, v := range rep.Violations {
		var te *dram.TimingError
		switch {
		case v.Code != fsmerr.CodeTiming || v.Cmd == nil:
			t.Fatalf("violation %d: %v, want a timing error naming its command", i, v)
		case !errors.As(v, &te):
			t.Fatalf("violation %d: %v wraps no channel TimingError", i, v)
		case te.Cmd != *v.Cmd || te.Cycle != v.Cycle || te.ReadyAt <= te.Cycle:
			t.Fatalf("violation %d: %v explains %v at cycle %d ready at %d, want the planned command at cycle %d ready later",
				i, v, te.Cmd, te.Cycle, te.ReadyAt, v.Cycle)
		}
	}
}

// TestCheckerCatchesCorruptedPipeline takes a valid recorded pipeline,
// shifts one command by a cycle, and requires both validators to flag it.
func TestCheckerCatchesCorruptedPipeline(t *testing.T) {
	p := paperParams()
	cmds, _, err := RecordPipeline(p, Config{Variant: FSRankPart, Domains: 8, Seed: 2}, figure1Pattern(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if errs := VerifyPipeline(p, cmds); len(errs) != 0 {
		t.Fatalf("pristine pipeline should verify: %v", errs[0])
	}
	// Corrupt: move a mid-stream command onto its neighbor's cycle.
	corrupted := append([]TimedCommand(nil), cmds...)
	idx := len(corrupted) / 2
	corrupted[idx].Cycle = corrupted[idx+1].Cycle
	if errs := VerifyPipeline(p, corrupted); len(errs) == 0 {
		t.Fatal("checker missed a same-cycle command-bus collision")
	}

	ref := dram.NewReferenceChecker(p)
	caught := false
	for _, tc := range corrupted {
		if err := ref.Check(tc.Cmd, tc.Cycle); err != nil {
			caught = true
			break
		}
		ref.Apply(tc.Cmd, tc.Cycle)
	}
	if !caught {
		t.Fatal("reference checker missed the corruption")
	}
}

// TestCheckerCatchesTWTRCorruption shifts a read CAS early enough to break
// the write-to-read turnaround specifically.
func TestCheckerCatchesTWTRCorruption(t *testing.T) {
	p := paperParams()
	cmds, _, err := RecordPipeline(p, Config{Variant: FSBankPart, Domains: 8, Seed: 3},
		[]bool{true, false, true, false, true, false, true, false}, 6)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]TimedCommand(nil), cmds...)
	moved := false
	lastWrite := int64(-1)
	for i := 1; i < len(corrupted); i++ {
		if corrupted[i].Cmd.Kind == dram.KindWriteAP {
			lastWrite = corrupted[i].Cycle
		}
		if corrupted[i].Cmd.Kind == dram.KindReadAP && lastWrite >= 0 && i > len(corrupted)/2 {
			// Move the read CAS to lastWrite+8: inside the 15-cycle Wr2Rd
			// window, on an otherwise-free command-bus cycle of the l=15
			// grid (busy cycles are 0 and 11 of each slot).
			corrupted[i].Cycle = lastWrite + 8
			moved = true
			break
		}
	}
	if !moved {
		t.Skip("no write-then-read CAS pair in this window")
	}
	if errs := VerifyPipeline(p, corrupted); len(errs) == 0 {
		t.Fatal("checker missed a tWTR violation")
	}
}
