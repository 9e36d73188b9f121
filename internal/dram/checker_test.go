package dram

import (
	"strings"
	"testing"
)

// TestCheckerCascadeIsolation pins the checker property the runtime monitor
// relies on: an invalid command is recorded and NOT applied, so one fault
// yields one violation instead of poisoning the channel state and
// cascading into spurious violations on every later command.
func TestCheckerCascadeIsolation(t *testing.T) {
	p := DDR3_1600()
	c := NewChecker(p)

	act := Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 5}
	c.Feed(act, 10)
	if !c.Ok() {
		t.Fatalf("legal ACT rejected: %v", c.Violations())
	}

	// Illegal: the bank is already open. Must be flagged — and must NOT
	// overwrite the open row or the activate timestamp.
	bad := Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 9}
	c.Feed(bad, 12)
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("premature ACT produced %d violations, want 1", n)
	}
	if v := c.Violations()[0].Error(); !strings.Contains(v, "already open") {
		t.Errorf("violation %q does not name the broken constraint", v)
	}

	// This read is legal only against the pre-fault state (row 5 open since
	// cycle 10). If the bad ACT had been applied, tRCD from cycle 12 would
	// reject it and the row would be 9.
	read := Command{Kind: KindRead, Rank: 0, Bank: 0, Row: 5}
	c.Feed(read, 10+int64(p.TRCD))
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("bad command cascaded: read after isolated fault flagged, violations=%v", c.Violations())
	}
	if c.Commands() != 3 {
		t.Errorf("Commands() = %d, want 3 (rejected commands still count as fed)", c.Commands())
	}
}

// TestCheckerDerate: the same stream that is legal at nominal timings must
// be flagged by a derated checker — the mechanism the fault campaign uses
// to model marginal hardware behind a nominally planned schedule.
func TestCheckerDerate(t *testing.T) {
	p := DDR3_1600()
	feed := func(c *Checker) {
		c.Feed(Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 5}, 10)
		c.Feed(Command{Kind: KindRead, Rank: 0, Bank: 0, Row: 5}, 10+int64(p.TRCD))
	}

	nominal := NewChecker(p)
	feed(nominal)
	if !nominal.Ok() {
		t.Fatalf("nominal stream rejected: %v", nominal.Violations())
	}

	derated := NewChecker(p)
	derated.SetDerate(-1, Derate{TRCD: 2})
	feed(derated)
	if derated.Ok() {
		t.Fatal("tRCD-derated checker accepted a nominal-tRCD stream")
	}
	if v := derated.Violations()[0].Error(); !strings.Contains(v, "tRCD") {
		t.Errorf("violation %q does not name tRCD", v)
	}

	// The derate is per-rank: rank 1 keeps nominal timings.
	ranked := NewChecker(p)
	ranked.SetDerate(0, Derate{TRCD: 2})
	ranked.Feed(Command{Kind: KindActivate, Rank: 1, Bank: 0, Row: 5}, 10)
	ranked.Feed(Command{Kind: KindRead, Rank: 1, Bank: 0, Row: 5}, 10+int64(p.TRCD))
	if !ranked.Ok() {
		t.Fatalf("rank-0 derate leaked into rank 1: %v", ranked.Violations())
	}
}

// TestCheckerCapsStoredViolations: a long faulted stream keeps counting
// violations but stores only the first 32, so the checker's memory stays
// bounded; Feed returns each violation as it happens.
func TestCheckerCapsStoredViolations(t *testing.T) {
	c := NewChecker(DDR3_1600())
	const n = 10000
	bad := Command{Kind: KindRead, Rank: 0, Bank: 0} // the bank is closed
	for i := 0; i < n; i++ {
		if err := c.Feed(bad, int64(i)); err == nil {
			t.Fatalf("command %d: read of a closed bank accepted", i)
		}
	}
	if got := len(c.Violations()); got > 32 {
		t.Errorf("stored %d violations, want at most 32", got)
	}
	if c.count != n || c.Ok() {
		t.Errorf("count = %d, Ok() = %v; want %d, false", c.count, c.Ok(), n)
	}
	if err := c.Feed(Command{Kind: KindActivate, Rank: 0, Bank: 0, Row: 1}, n); err != nil {
		t.Errorf("legal ACT rejected after the storm: %v", err)
	}
}
