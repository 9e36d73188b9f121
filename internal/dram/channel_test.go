package dram

import (
	"errors"
	"strings"
	"testing"
)

func testParams() Params { return DDR3_1600() }

func mustIssue(t *testing.T, ch *Channel, cmd Command, cycle int64) {
	t.Helper()
	if err := ch.Issue(cmd, cycle); err != nil {
		t.Fatalf("Issue(%v, %d): %v", cmd, cycle, err)
	}
}

func wantReject(t *testing.T, ch *Channel, cmd Command, cycle int64, substr string) *TimingError {
	t.Helper()
	err := ch.CanIssue(cmd, cycle)
	if err == nil {
		t.Fatalf("CanIssue(%v, %d): expected rejection containing %q, got nil", cmd, cycle, substr)
	}
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("CanIssue(%v, %d): error %v is not a *TimingError", cmd, cycle, err)
	}
	if !strings.Contains(te.Constraint, substr) {
		t.Fatalf("CanIssue(%v, %d): constraint %q does not contain %q", cmd, cycle, te.Constraint, substr)
	}
	return te
}

func act(rank, bank, row int) Command {
	return Command{Kind: KindActivate, Rank: rank, Bank: bank, Row: row}
}
func rd(rank, bank int) Command   { return Command{Kind: KindRead, Rank: rank, Bank: bank} }
func rdap(rank, bank int) Command { return Command{Kind: KindReadAP, Rank: rank, Bank: bank} }
func wr(rank, bank int) Command   { return Command{Kind: KindWrite, Rank: rank, Bank: bank} }
func wrap(rank, bank int) Command { return Command{Kind: KindWriteAP, Rank: rank, Bank: bank} }
func pre(rank, bank int) Command  { return Command{Kind: KindPrecharge, Rank: rank, Bank: bank} }

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatalf("DDR3_1600 should validate: %v", err)
	}
	bad := testParams()
	bad.TRAS = bad.TRC // tRAS+tRP > tRC
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for tRAS+tRP > tRC")
	}
	bad = testParams()
	bad.TBURST = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero tBURST")
	}
}

func TestDerivedGaps(t *testing.T) {
	p := testParams()
	// The paper: Rd2Wr = tCAS + tBURST - tCWD = 10, Wr2Rd = tCWD + tBURST + tWTR = 15.
	if got := p.ReadToWriteGap(); got != 10 {
		t.Errorf("ReadToWriteGap = %d, want 10", got)
	}
	if got := p.WriteToReadGap(); got != 15 {
		t.Errorf("WriteToReadGap = %d, want 15", got)
	}
	if p.TotalBanks() != 64 {
		t.Errorf("TotalBanks = %d, want 64", p.TotalBanks())
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{KindRead, KindReadAP} {
		if !k.IsCAS() || !k.IsRead() || k.IsWrite() {
			t.Errorf("%v: wrong read predicates", k)
		}
	}
	for _, k := range []Kind{KindWrite, KindWriteAP} {
		if !k.IsCAS() || k.IsRead() || !k.IsWrite() {
			t.Errorf("%v: wrong write predicates", k)
		}
	}
	if KindActivate.IsCAS() || KindPrecharge.IsCAS() {
		t.Error("ACT/PRE must not be CAS")
	}
	if !KindReadAP.AutoPrecharge() || !KindWriteAP.AutoPrecharge() || KindRead.AutoPrecharge() {
		t.Error("auto-precharge predicate wrong")
	}
	if got := KindActivate.String(); got != "ACT" {
		t.Errorf("KindActivate.String() = %q", got)
	}
}

func TestReadNeedsOpenRowAndTRCD(t *testing.T) {
	ch := NewChannel(testParams())
	wantReject(t, ch, rd(0, 0), 10, "closed bank")
	mustIssue(t, ch, act(0, 0, 5), 10)
	wantReject(t, ch, rd(0, 0), 10+int64(ch.P.TRCD)-1, "tRCD")
	mustIssue(t, ch, rd(0, 0), 10+int64(ch.P.TRCD))
}

func TestActivateToOpenBankRejected(t *testing.T) {
	ch := NewChannel(testParams())
	mustIssue(t, ch, act(0, 0, 5), 0)
	wantReject(t, ch, act(0, 0, 6), 100, "already open")
}

func TestTRCBetweenActivates(t *testing.T) {
	ch := NewChannel(testParams())
	p := ch.P
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, pre(0, 0), int64(p.TRAS))
	// tRP satisfied at tRAS+tRP = 39 = tRC, so tRC is the binding constraint
	// if we try one cycle early after a shorter precharge path.
	wantReject(t, ch, act(0, 0, 2), int64(p.TRC)-1, "tRP")
	mustIssue(t, ch, act(0, 0, 2), int64(p.TRC))
}

func TestPrechargeConstraints(t *testing.T) {
	p := testParams()

	t.Run("tRAS", func(t *testing.T) {
		ch := NewChannel(p)
		mustIssue(t, ch, act(0, 0, 1), 0)
		wantReject(t, ch, pre(0, 0), int64(p.TRAS)-1, "tRAS")
		mustIssue(t, ch, pre(0, 0), int64(p.TRAS))
	})
	t.Run("tRTP", func(t *testing.T) {
		ch := NewChannel(p)
		mustIssue(t, ch, act(0, 0, 1), 0)
		rdCycle := int64(p.TRAS) // read late so tRAS is already met
		mustIssue(t, ch, rd(0, 0), rdCycle)
		wantReject(t, ch, pre(0, 0), rdCycle+int64(p.TRTP)-1, "tRTP")
		mustIssue(t, ch, pre(0, 0), rdCycle+int64(p.TRTP))
	})
	t.Run("tWR", func(t *testing.T) {
		ch := NewChannel(p)
		mustIssue(t, ch, act(0, 0, 1), 0)
		wrCycle := int64(p.TRAS)
		mustIssue(t, ch, wr(0, 0), wrCycle)
		dataEnd := wrCycle + int64(p.TCWD) + int64(p.TBURST)
		wantReject(t, ch, pre(0, 0), dataEnd+int64(p.TWR)-1, "tWR")
		mustIssue(t, ch, pre(0, 0), dataEnd+int64(p.TWR))
	})
	t.Run("closed bank", func(t *testing.T) {
		ch := NewChannel(p)
		wantReject(t, ch, pre(0, 0), 0, "closed bank")
	})
}

func TestReadAutoPrecharge(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, rdap(0, 0), int64(p.TRCD))
	if ch.OpenRow(0, 0) != ClosedRow {
		t.Fatal("RDAP should close the row")
	}
	// Auto-precharge begins at max(ACT+tRAS, RD+tRTP) = max(28, 11+6) = 28,
	// so the next ACT is legal at 28 + tRP = 39 (= tRC here).
	preStart := int64(p.TRAS)
	wantReject(t, ch, act(0, 0, 2), preStart+int64(p.TRP)-1, "tR")
	mustIssue(t, ch, act(0, 0, 2), preStart+int64(p.TRP))
}

func TestWriteAutoPrechargeTiming(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	wrCycle := int64(p.TRCD)
	mustIssue(t, ch, wrap(0, 0), wrCycle)
	// Precharge begins at write data end + tWR = 11+5+4+12 = 32 > tRAS.
	preStart := wrCycle + int64(p.TCWD) + int64(p.TBURST) + int64(p.TWR)
	nextAct := preStart + int64(p.TRP)
	wantReject(t, ch, act(0, 0, 2), nextAct-1, "tRP")
	mustIssue(t, ch, act(0, 0, 2), nextAct)
}

func TestTRRDAndTFAW(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	// Four activates to different banks of rank 0 spaced exactly tRRD.
	var cycles []int64
	for i := 0; i < 4; i++ {
		c := int64(i * p.TRRD)
		mustIssue(t, ch, act(0, i, 1), c)
		cycles = append(cycles, c)
	}
	// Fifth ACT: tRRD would allow 4*tRRD=20, but tFAW requires cycles[0]+24.
	wantReject(t, ch, act(0, 4, 1), cycles[3]+int64(p.TRRD), "tFAW")
	mustIssue(t, ch, act(0, 4, 1), cycles[0]+int64(p.TFAW))

	// tRRD alone.
	wantReject(t, ch, act(0, 5, 1), cycles[0]+int64(p.TFAW)+int64(p.TRRD)-1, "tRRD")
}

func TestTCCDSameRank(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, act(0, 1, 1), int64(p.TRRD))
	c0 := int64(p.TRCD + p.TRRD)
	mustIssue(t, ch, rd(0, 0), c0)
	wantReject(t, ch, rd(0, 1), c0+int64(p.TCCD)-1, "tCCD")
	mustIssue(t, ch, rd(0, 1), c0+int64(p.TCCD))
}

func TestWriteToReadTWTR(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, act(0, 1, 1), int64(p.TRRD))
	wrCycle := int64(p.TRCD + p.TRRD)
	mustIssue(t, ch, wr(0, 0), wrCycle)
	dataEnd := wrCycle + int64(p.TCWD) + int64(p.TBURST)
	// Read to the same rank must wait tWTR after write data; total spacing
	// equals the paper's Wr2Rd = tCWD + tBURST + tWTR = 15.
	wantReject(t, ch, rd(0, 1), dataEnd+int64(p.TWTR)-1, "tWTR")
	mustIssue(t, ch, rd(0, 1), wrCycle+int64(p.WriteToReadGap()))
}

func TestReadToWriteDataBus(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, act(0, 1, 1), int64(p.TRRD))
	c0 := int64(p.TRCD + p.TRRD)
	mustIssue(t, ch, rd(0, 0), c0)
	// A write CAS one cycle before Rd2Wr collides on the data bus.
	wantReject(t, ch, wr(0, 1), c0+int64(p.ReadToWriteGap())-1, "data bus")
	mustIssue(t, ch, wr(0, 1), c0+int64(p.ReadToWriteGap()))
}

func TestRankToRankSwitchTRTRS(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, act(1, 0, 1), 1)
	c0 := int64(p.TRCD + 1)
	mustIssue(t, ch, rd(0, 0), c0)
	// Back-to-back reads on different ranks need tBURST+tRTRS spacing.
	wantReject(t, ch, rd(1, 0), c0+int64(p.TBURST+p.TRTRS)-1, "data bus")
	mustIssue(t, ch, rd(1, 0), c0+int64(p.TBURST+p.TRTRS))
}

// TestWriteDataBusReadyAt pins the data-bus ReadyAt of a write blocked by
// another rank's read burst. The write's own burst starts tCWD after the
// command, so the bound is the cycle the write first becomes legal: 92 on
// DDR3-1600 and 90 on DDR4-2400, where the read's tCAS gave 86 on both.
func TestWriteDataBusReadyAt(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want int64
	}{
		{"ddr3-1600", DDR3_1600(), 92},
		{"ddr4-2400", DDR4_2400(), 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := NewChannel(tc.p)
			mustIssue(t, ch, act(0, 0, 1), 0)
			mustIssue(t, ch, act(1, 0, 1), 1)
			mustIssue(t, ch, rd(0, 0), 80)
			te := wantReject(t, ch, wr(1, 0), 81, "data bus conflict with rank 0")
			first := int64(81)
			for !ch.Ready(wr(1, 0), first) {
				first++
			}
			if te.ReadyAt != tc.want || first != tc.want {
				t.Fatalf("write blocked by rank 0's read burst: ReadyAt %d, first legal cycle %d, want both %d",
					te.ReadyAt, first, tc.want)
			}
			if got := ch.ReadyAt(wr(1, 0), 81); got != te.ReadyAt {
				t.Fatalf("ReadyAt = %d, TimingError.ReadyAt = %d: one computation must give one bound", got, te.ReadyAt)
			}
		})
	}
}

func TestSameRankBackToBackReadsNeedOnlyTCCD(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	mustIssue(t, ch, act(0, 1, 1), int64(p.TRRD))
	c0 := int64(p.TRCD + p.TRRD)
	mustIssue(t, ch, rd(0, 0), c0)
	mustIssue(t, ch, rd(0, 1), c0+int64(p.TCCD)) // contiguous bursts, same rank
}

func TestCommandBusOneCommandPerCycle(t *testing.T) {
	ch := NewChannel(testParams())
	mustIssue(t, ch, act(0, 0, 1), 5)
	wantReject(t, ch, act(1, 0, 1), 5, "command bus")
	wantReject(t, ch, act(1, 0, 1), 4, "command bus") // also out of order
	mustIssue(t, ch, act(1, 0, 1), 6)
}

func TestRefresh(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	mustIssue(t, ch, act(0, 0, 1), 0)
	wantReject(t, ch, Command{Kind: KindRefresh, Rank: 0}, 100, "open")
	mustIssue(t, ch, pre(0, 0), int64(p.TRAS))
	refCycle := int64(p.TRAS + p.TRP)
	mustIssue(t, ch, Command{Kind: KindRefresh, Rank: 0}, refCycle)
	wantReject(t, ch, act(0, 0, 1), refCycle+int64(p.TRFC)-1, "tRFC")
	mustIssue(t, ch, act(0, 0, 1), refCycle+int64(p.TRFC))
	if ch.Counters.Refreshes != 1 {
		t.Errorf("Refreshes = %d, want 1", ch.Counters.Refreshes)
	}
	// Refresh must not block other ranks.
	ch2 := NewChannel(p)
	mustIssue(t, ch2, Command{Kind: KindRefresh, Rank: 0}, 0)
	mustIssue(t, ch2, act(1, 0, 1), 1)
}

func TestSuppressedIssueKeepsTimingButSplitsCounters(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	if err := ch.IssueEx(act(0, 0, 1), 0, true); err != nil {
		t.Fatal(err)
	}
	if err := ch.IssueEx(rdap(0, 0), int64(p.TRCD), true); err != nil {
		t.Fatal(err)
	}
	if ch.Counters.Acts != 0 || ch.Counters.SuppressedActs != 1 {
		t.Errorf("Acts=%d SuppressedActs=%d, want 0/1", ch.Counters.Acts, ch.Counters.SuppressedActs)
	}
	if ch.Counters.Reads != 0 || ch.Counters.SuppressedReads != 1 {
		t.Errorf("Reads=%d SuppressedReads=%d, want 0/1", ch.Counters.Reads, ch.Counters.SuppressedReads)
	}
	if ch.Counters.DataBusBusy != 0 {
		t.Errorf("suppressed read must not count data bus busy, got %d", ch.Counters.DataBusBusy)
	}
	// The timing footprint is identical to a real RDAP: same-bank ACT must
	// still wait for the auto-precharge.
	wantReject(t, ch, act(0, 0, 2), int64(p.TRAS+p.TRP)-1, "tR")
}

func TestCheckerRecordsWithoutCascading(t *testing.T) {
	p := testParams()
	c := NewChecker(p)
	c.Feed(rd(0, 0), 0) // invalid: closed bank
	c.Feed(act(0, 0, 1), 1)
	c.Feed(rd(0, 0), 1+int64(p.TRCD))
	if c.Ok() {
		t.Fatal("checker should have recorded the closed-bank read")
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(c.Violations()), c.Violations())
	}
	if c.Commands() != 3 {
		t.Errorf("Commands = %d, want 3", c.Commands())
	}
	if c.Counters().Reads != 1 {
		t.Errorf("valid read should have applied, Reads = %d", c.Counters().Reads)
	}
}

func TestTimingErrorMessage(t *testing.T) {
	ch := NewChannel(testParams())
	err := ch.CanIssue(rd(0, 0), 3)
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	for _, want := range []string{"RD", "cycle 3", "closed bank"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestBadTargetsRejected(t *testing.T) {
	ch := NewChannel(testParams())
	if err := ch.CanIssue(act(99, 0, 1), 0); err == nil {
		t.Error("rank out of range should be rejected")
	}
	if err := ch.CanIssue(act(0, 99, 1), 0); err == nil {
		t.Error("bank out of range should be rejected")
	}
}

// TestGreedyClosedPageStreamIsLegal drives a long pseudo-random closed-page
// request stream through the channel using a greedy earliest-issue policy and
// requires that every command eventually issues and passes validation.
func TestGreedyClosedPageStreamIsLegal(t *testing.T) {
	p := testParams()
	ch := NewChannel(p)
	seed := uint64(12345)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	cycle := int64(0)
	issueASAP := func(cmd Command) int64 {
		for tries := 0; tries < 10000; tries++ {
			err := ch.Issue(cmd, cycle)
			if err == nil {
				return cycle
			}
			var te *TimingError
			if errors.As(err, &te) && te.ReadyAt > cycle && te.ReadyAt != NeverReady {
				cycle = te.ReadyAt
				continue
			}
			cycle++
		}
		t.Fatalf("command %v never became issuable", cmd)
		return 0
	}
	for i := 0; i < 500; i++ {
		r := next()
		rank := int(r % uint64(p.RanksPerChan))
		bank := int((r >> 8) % uint64(p.BanksPerRank))
		row := int((r >> 16) % uint64(p.RowsPerBank))
		write := (r>>40)&1 == 0
		issueASAP(act(rank, bank, row))
		if write {
			issueASAP(wrap(rank, bank))
		} else {
			issueASAP(rdap(rank, bank))
		}
	}
	got := ch.Counters.Acts
	if got != 500 {
		t.Fatalf("Acts = %d, want 500", got)
	}
	if ch.Counters.Reads+ch.Counters.Writes != 500 {
		t.Fatalf("CAS count = %d, want 500", ch.Counters.Reads+ch.Counters.Writes)
	}
}
