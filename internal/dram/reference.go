package dram

import "fmt"

// ReferenceChecker is a second, independently written validator for DRAM
// command streams. Where Channel keeps incremental per-bank state machines
// (fast, used inside the simulator), the reference keeps the ENTIRE
// command history and re-derives every constraint by brute-force scanning
// on each command. The two implementations share no code paths beyond the
// Params struct; the differential tests drive random and adversarial
// streams through both and require identical accept/reject verdicts. The
// timing model is the security-critical component — this is its N-version
// check.
type ReferenceChecker struct {
	P Params

	history []refEvent
	derate  map[int]Derate // per-rank additive timing margins (absent = nominal)
}

type refEvent struct {
	cmd   Command
	cycle int64
}

// NewReferenceChecker builds an empty reference validator.
func NewReferenceChecker(p Params) *ReferenceChecker {
	return &ReferenceChecker{P: p}
}

// SetDerate installs additive timing margins for one rank, or for every
// rank when rank is -1. The margins are static: they hold over the whole
// history, as Channel.SetDerate's do when installed before the first
// command.
func (r *ReferenceChecker) SetDerate(rank int, d Derate) {
	if r.derate == nil {
		r.derate = map[int]Derate{}
	}
	for i := 0; i < r.P.RanksPerChan; i++ {
		if rank < 0 || i == rank {
			r.derate[i] = d
		}
	}
}

// dataInterval returns the [start, end) data-bus occupancy of a CAS event.
func (r *ReferenceChecker) dataInterval(e refEvent) (int64, int64, bool) {
	switch {
	case e.cmd.Kind.IsRead():
		s := e.cycle + int64(r.P.TCAS)
		return s, s + int64(r.P.TBURST), true
	case e.cmd.Kind.IsWrite():
		s := e.cycle + int64(r.P.TCWD)
		return s, s + int64(r.P.TBURST), true
	}
	return 0, 0, false
}

// rowOpenAt reconstructs the open row of (rank, bank) at the given cycle
// by scanning the history: the last ACT opens it, the first later PRE /
// auto-precharge / refresh closes it.
func (r *ReferenceChecker) rowOpenAt(rank, bank int, cycle int64) (int, bool) {
	row := ClosedRow
	open := false
	for _, e := range r.history {
		if e.cycle >= cycle {
			continue
		}
		switch {
		case e.cmd.Kind == KindActivate && e.cmd.Rank == rank && e.cmd.Bank == bank:
			row, open = e.cmd.Row, true
		case e.cmd.Kind == KindPrecharge && e.cmd.Rank == rank && e.cmd.Bank == bank:
			row, open = ClosedRow, false
		case e.cmd.Kind.AutoPrecharge() && e.cmd.Rank == rank && e.cmd.Bank == bank:
			row, open = ClosedRow, false
		case e.cmd.Kind == KindRefresh && e.cmd.Rank == rank:
			row, open = ClosedRow, false
		}
	}
	if !open {
		return ClosedRow, false
	}
	return row, true
}

// prechargeStart derives when the bank's most recent precharge began.
func (r *ReferenceChecker) prechargeStart(rank, bank int, before int64) (int64, bool) {
	d := r.derate[rank]
	tRAS := int64(r.P.TRAS + d.TRAS)
	start := int64(NeverCycle)
	found := false
	var lastAct int64 = NeverCycle
	for _, e := range r.history {
		if e.cycle >= before || e.cmd.Rank != rank {
			continue
		}
		switch {
		case e.cmd.Kind == KindActivate && e.cmd.Bank == bank:
			lastAct = e.cycle
			found = false // an ACT re-opens; prior precharge no longer pending
		case e.cmd.Kind == KindPrecharge && e.cmd.Bank == bank:
			start, found = e.cycle, true
		case e.cmd.Kind == KindReadAP && e.cmd.Bank == bank:
			s := e.cycle + int64(r.P.TRTP+d.TRTP)
			if lastAct != NeverCycle && lastAct+tRAS > s {
				s = lastAct + tRAS
			}
			start, found = s, true
		case e.cmd.Kind == KindWriteAP && e.cmd.Bank == bank:
			s := e.cycle + int64(r.P.TCWD) + int64(r.P.TBURST) + int64(r.P.TWR+d.TWR)
			if lastAct != NeverCycle && lastAct+tRAS > s {
				s = lastAct + tRAS
			}
			start, found = s, true
		case e.cmd.Kind == KindRefresh:
			start, found = e.cycle+int64(r.P.TRFC)-int64(r.P.TRP), true
		}
	}
	return start, found
}

// Check validates one command against the whole history; nil means legal.
// It states the rules of every command kind the channel models, under the
// installed derates.
func (r *ReferenceChecker) Check(cmd Command, cycle int64) error {
	p := r.P
	d := r.derate[cmd.Rank]
	fail := func(what string) error {
		return fmt.Errorf("reference: %v at %d violates %s", cmd, cycle, what)
	}

	// Command bus: strictly increasing cycles.
	for _, e := range r.history {
		if e.cycle >= cycle {
			return fail("command bus ordering")
		}
	}

	// Refresh busy window.
	for _, e := range r.history {
		if e.cmd.Kind == KindRefresh && e.cmd.Rank == cmd.Rank && cycle < e.cycle+int64(p.TRFC) {
			return fail("tRFC")
		}
	}

	switch cmd.Kind {
	case KindActivate:
		if _, open := r.rowOpenAt(cmd.Rank, cmd.Bank, cycle+1); open {
			return fail("bank open")
		}
		if s, ok := r.prechargeStart(cmd.Rank, cmd.Bank, cycle); ok && cycle < s+int64(p.TRP+d.TRP) {
			return fail("tRP")
		}
		acts := []int64{}
		for _, e := range r.history {
			if e.cmd.Kind != KindActivate || e.cmd.Rank != cmd.Rank {
				continue
			}
			if e.cmd.Bank == cmd.Bank && cycle < e.cycle+int64(p.TRC+d.TRC) {
				return fail("tRC")
			}
			if cycle < e.cycle+int64(p.RRDOther()+d.TRRD) {
				return fail("tRRD")
			}
			if p.BankGroup(e.cmd.Bank) == p.BankGroup(cmd.Bank) && cycle < e.cycle+int64(p.RRDSame()+d.TRRD) {
				return fail("tRRD_L")
			}
			acts = append(acts, e.cycle)
		}
		// tFAW: the new ACT plus any 4 prior within the window.
		inWindow := 0
		for _, a := range acts {
			if a > cycle-int64(p.TFAW+d.TFAW) {
				inWindow++
			}
		}
		if inWindow >= 4 {
			return fail("tFAW")
		}

	case KindRead, KindReadAP, KindWrite, KindWriteAP:
		row, open := r.rowOpenAt(cmd.Rank, cmd.Bank, cycle+1)
		_ = row
		if !open {
			return fail("closed bank")
		}
		// tRCD from the opening ACT.
		var act int64 = NeverCycle
		for _, e := range r.history {
			if e.cmd.Kind == KindActivate && e.cmd.Rank == cmd.Rank && e.cmd.Bank == cmd.Bank && e.cycle < cycle {
				act = e.cycle
			}
		}
		if cycle < act+int64(p.TRCD+d.TRCD) {
			return fail("tRCD")
		}
		for _, e := range r.history {
			if !e.cmd.Kind.IsCAS() || e.cmd.Rank != cmd.Rank {
				continue
			}
			if cycle < e.cycle+int64(p.CCDOther()+d.TCCD) {
				return fail("tCCD")
			}
			if p.BankGroup(e.cmd.Bank) == p.BankGroup(cmd.Bank) && cycle < e.cycle+int64(p.CCDSame()+d.TCCD) {
				return fail("tCCD_L")
			}
			if cmd.Kind.IsRead() && e.cmd.Kind.IsWrite() {
				end := e.cycle + int64(p.TCWD) + int64(p.TBURST)
				if cycle < end+int64(p.WTROther()+d.TWTR) {
					return fail("tWTR")
				}
				if p.BankGroup(e.cmd.Bank) == p.BankGroup(cmd.Bank) && cycle < end+int64(p.WTRSame()+d.TWTR) {
					return fail("tWTR_L")
				}
			}
		}
		// Data bus against every prior transfer.
		ns, ne, _ := r.dataInterval(refEvent{cmd: cmd, cycle: cycle})
		for _, e := range r.history {
			s, en, ok := r.dataInterval(e)
			if !ok {
				continue
			}
			gap := int64(0)
			if e.cmd.Rank != cmd.Rank {
				gap = int64(p.TRTRS)
			}
			if ns < en+gap && s < ne+gap {
				return fail("data bus")
			}
		}

	case KindPrecharge:
		if _, open := r.rowOpenAt(cmd.Rank, cmd.Bank, cycle+1); !open {
			return fail("closed bank")
		}
		for _, e := range r.history {
			if e.cmd.Rank != cmd.Rank || e.cmd.Bank != cmd.Bank {
				continue
			}
			switch {
			case e.cmd.Kind == KindActivate && cycle < e.cycle+int64(p.TRAS+d.TRAS):
				return fail("tRAS")
			case e.cmd.Kind.IsRead() && cycle < e.cycle+int64(p.TRTP+d.TRTP):
				return fail("tRTP")
			case e.cmd.Kind.IsWrite() && cycle < e.cycle+int64(p.TCWD)+int64(p.TBURST)+int64(p.TWR+d.TWR):
				return fail("tWR")
			}
		}

	case KindRefresh:
		for b := 0; b < p.BanksPerRank; b++ {
			if _, open := r.rowOpenAt(cmd.Rank, b, cycle+1); open {
				return fail("bank open before refresh")
			}
			if s, ok := r.prechargeStart(cmd.Rank, b, cycle); ok && cycle < s+int64(p.TRP+d.TRP) {
				return fail("tRP before refresh")
			}
		}

	default:
		return fail("unsupported command kind")
	}
	return nil
}

// Apply records the command (call after a successful Check, or to force
// history for adversarial tests).
func (r *ReferenceChecker) Apply(cmd Command, cycle int64) {
	r.history = append(r.history, refEvent{cmd: cmd, cycle: cycle})
}
