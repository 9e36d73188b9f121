package dram

import (
	"errors"
	"fmt"
	"math"
)

// NeverCycle is a sentinel for "has not happened"; it is far enough in the
// past that no timing constraint measured from it can ever block.
const NeverCycle = int64(-1) << 60

// NeverReady is the ready-at cycle of a command that no amount of waiting
// makes legal: a state rejection such as an ACT to an open bank or a CAS
// to a closed one. Only another command (or a derate) can change the
// verdict.
const NeverReady = int64(math.MaxInt64)

// ClosedRow marks a bank with no open row.
const ClosedRow = -1

// TimingError describes a rejected command: which constraint failed and
// ReadyAt, the cycle that constraint clears (NeverReady for a state
// rejection). ReadyAt is a lower bound on the first legal cycle, not that
// cycle itself: a later constraint may still block then.
type TimingError struct {
	Cmd        Command
	Cycle      int64
	Constraint string
	ReadyAt    int64
}

// Error implements the error interface.
func (e *TimingError) Error() string {
	return fmt.Sprintf("dram: %v at cycle %d violates %s (ready at %d)", e.Cmd, e.Cycle, e.Constraint, e.ReadyAt)
}

type bankState struct {
	openRow        int   // ClosedRow when precharged/precharging
	lastAct        int64 // cycle of last ACT
	prechargeStart int64 // cycle the most recent precharge began (explicit or auto)
	lastReadCAS    int64
	writeDataEnd   int64 // end (exclusive) of the most recent write burst
}

type rankState struct {
	banks            []bankState
	actHist          [4]int64 // most recent ACT cycles, actHist[0] newest
	lastCAS          int64
	lastWriteDataEnd int64
	refreshUntil     int64 // rank busy with refresh until this cycle (exclusive)

	// Per-bank-group state for DDR4 long timings (length BankGroups, or 1).
	groups []groupState
}

// groupState is one bank group's most recent ACT, CAS and write-burst end.
type groupState struct {
	lastAct, lastCAS, lastWriteDataEnd int64
}

type dataSlot struct {
	start, end int64 // [start, end) on the data bus
	rank       int
}

// Counters aggregates channel activity for statistics and the energy model.
// Suppressed counts record commands whose timing footprint was modeled but
// whose DRAM operation was elided (energy optimization 1 and 2 in §5.2).
type Counters struct {
	Acts, Reads, Writes, Precharges, Refreshes        int64
	SuppressedActs, SuppressedReads, SuppressedWrites int64
	SuppressedPrecharges                              int64
	CmdBusBusy                                        int64
	DataBusBusy                                       int64
	// PowerDowns and PowerUps are always zero: no controller issues a
	// power-down command, and core.FS accounts for rank power-down
	// analytically (FSStats.PowerDownCycles). They stay because a run's
	// serialized Result and its power_downs/power_ups metrics carry them.
	PowerDowns, PowerUps int64
}

// Add accumulates another channel's counters into c — every field, so a
// multi-channel aggregate stays self-consistent (the legacy merge summed
// only a subset, leaving ratios over the rest silently wrong).
func (c *Counters) Add(o Counters) {
	c.Acts += o.Acts
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.Precharges += o.Precharges
	c.Refreshes += o.Refreshes
	c.SuppressedActs += o.SuppressedActs
	c.SuppressedReads += o.SuppressedReads
	c.SuppressedWrites += o.SuppressedWrites
	c.SuppressedPrecharges += o.SuppressedPrecharges
	c.CmdBusBusy += o.CmdBusBusy
	c.DataBusBusy += o.DataBusBusy
	c.PowerDowns += o.PowerDowns
	c.PowerUps += o.PowerUps
}

// ObsMetrics contributes the channel counters to an observability snapshot
// (structurally satisfies obs.MetricSource without importing it).
func (c Counters) ObsMetrics(emit func(name string, value float64)) {
	emit("acts", float64(c.Acts))
	emit("reads", float64(c.Reads))
	emit("writes", float64(c.Writes))
	emit("precharges", float64(c.Precharges))
	emit("refreshes", float64(c.Refreshes))
	emit("suppressed_acts", float64(c.SuppressedActs))
	emit("suppressed_reads", float64(c.SuppressedReads))
	emit("suppressed_writes", float64(c.SuppressedWrites))
	emit("suppressed_precharges", float64(c.SuppressedPrecharges))
	emit("cmd_bus_busy", float64(c.CmdBusBusy))
	emit("data_bus_busy", float64(c.DataBusBusy))
	emit("power_downs", float64(c.PowerDowns))
	emit("power_ups", float64(c.PowerUps))
}

// Channel models one DDR3 channel: its command bus, data bus, and the
// ranks/banks behind them. The zero value is not usable; use NewChannel.
type Channel struct {
	P Params

	ranks        []rankState
	derate       []Derate // per-rank additive timing margins (nil = nominal)
	lastCmdCycle int64
	dataOcc      []dataSlot // live data-bus bursts, past and scheduled (see recordData)
	gen          uint64     // state changes so far (see Gen)

	Counters Counters

	// OnIssue, when non-nil, observes every successfully issued command.
	OnIssue func(cmd Command, cycle int64, suppressed bool)
}

// dataOccCap presizes dataOcc. recordData keeps only the bursts a later
// command can still conflict with: at most three at DDR3-1600 and
// DDR4-2400.
const dataOccCap = 8

// NewChannel builds a channel in the all-banks-precharged state.
func NewChannel(p Params) *Channel {
	ch := &Channel{P: p, lastCmdCycle: NeverCycle}
	groups := p.BankGroups
	if groups < 1 {
		groups = 1
	}
	ch.ranks = make([]rankState, p.RanksPerChan)
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		rk.banks = make([]bankState, p.BanksPerRank)
		rk.lastCAS = NeverCycle
		rk.lastWriteDataEnd = NeverCycle
		rk.refreshUntil = NeverCycle
		for i := range rk.actHist {
			rk.actHist[i] = NeverCycle
		}
		rk.groups = make([]groupState, groups)
		for g := range rk.groups {
			rk.groups[g] = groupState{NeverCycle, NeverCycle, NeverCycle}
		}
		for b := range rk.banks {
			bk := &rk.banks[b]
			bk.openRow = ClosedRow
			bk.lastAct = NeverCycle
			bk.prechargeStart = NeverCycle
			bk.lastReadCAS = NeverCycle
			bk.writeDataEnd = NeverCycle
		}
	}
	ch.dataOcc = make([]dataSlot, 0, dataOccCap)
	return ch
}

// OpenRow returns the row currently open in the bank, or ClosedRow.
func (ch *Channel) OpenRow(rank, bank int) int { return ch.ranks[rank].banks[bank].openRow }

func (ch *Channel) bank(rank, bank int) *bankState { return &ch.ranks[rank].banks[bank] }

// errNotReady is the shared rejection value of the allocation-free probe
// path: schedulers that poll legality every cycle and back off on failure
// never read the constraint detail, so building a TimingError for them
// would allocate on every failed probe of the hot loop.
var errNotReady = errors.New("dram: command not ready (probe)")

// verdict collects a command's timing rules as rules states them, each
// once: per timing scope (see Scopes) the latest clear cycle of its rules,
// and the first rule, in rules' order, that rejects the probed cycle. A
// rule's clear cycle is the first cycle it allows; a state rejection
// clears at NeverReady. Each rule rejects a contiguous run of cycles
// ending at its clear cycle, so the first rejecting rule's clear cycle is
// a lower bound on the first legal cycle, and so is each scope's latest
// clear cycle.
type verdict struct {
	cycle             int64  // the probed cycle
	bank, group, rank int64  // latest clear cycle per scope so far, of the rules that reject cycle
	at                int64  // the first rejecting rule's clear cycle; cycle while none rejects
	rule              string // its name, a format taking the bank when arg > 0
	arg               int    // one more than the bank an open-bank rule names
}

// reset readies v to collect the rules at cycle. Fields are set one by
// one: a struct copy would read back the narrow stores of the literal as
// wide loads, which the store buffer cannot forward.
func (v *verdict) reset(cycle int64) {
	v.cycle, v.at = cycle, cycle
	v.bank, v.group, v.rank = NeverCycle, NeverCycle, NeverCycle
}

// rejects reports whether a rule that clears at clear rejects the probed
// cycle, and records the first rule that does.
func (v *verdict) rejects(r string, clear int64) bool {
	if clear <= v.cycle {
		return false
	}
	if v.at == v.cycle {
		v.at, v.rule = clear, r
	}
	return true
}

// busRule records the command-bus rule, which belongs to the channel's
// scope (see BusBound).
func (v *verdict) busRule(r string, clear int64) { v.rejects(r, clear) }

// bankRule records a bank-scoped rule: bank state, tRP, tRC, tRCD, tRAS,
// tRTP or tWR.
func (v *verdict) bankRule(r string, clear int64) {
	if v.rejects(r, clear) {
		v.bank = max(v.bank, clear)
	}
}

// groupRule records a bank-group rule: tRRD_L, tCCD_L or tWTR_L.
func (v *verdict) groupRule(r string, clear int64) {
	if v.rejects(r, clear) {
		v.group = max(v.group, clear)
	}
}

// rankRule records a rank-wide rule: tRFC, tRRD, tFAW, tCCD or tWTR.
func (v *verdict) rankRule(r string, clear int64) {
	if v.rejects(r, clear) {
		v.rank = max(v.rank, clear)
	}
}

// openBank records the state rejection of a REF while bank b of the rank
// is open.
func (v *verdict) openBank(r string, b int) {
	if v.at == v.cycle {
		v.arg = b + 1
	}
	v.bankRule(r, NeverReady)
}

// reject turns a rejecting verdict into canIssue's result: the clear cycle
// with a TimingError when explain is set, else the probe sentinel.
func (v *verdict) reject(cmd Command, explain bool) (int64, error) {
	if !explain {
		return v.at, errNotReady
	}
	rule := v.rule
	if v.arg > 0 {
		rule = fmt.Sprintf(rule, v.arg-1)
	}
	return v.at, &TimingError{Cmd: cmd, Cycle: v.cycle, Constraint: rule, ReadyAt: v.at}
}

// CanIssue reports whether cmd may legally issue on the command bus at the
// given cycle, checking bus availability and every timing constraint. The
// returned error carries the violated constraint and the ready-at cycle.
func (ch *Channel) CanIssue(cmd Command, cycle int64) error {
	_, err := ch.canIssue(cmd, cycle, true)
	return err
}

// Ready is CanIssue as an allocation-free predicate, for schedulers that
// probe legality in their hot loop and treat a rejection as back-off.
func (ch *Channel) Ready(cmd Command, cycle int64) bool {
	_, err := ch.canIssue(cmd, cycle, false)
	return err == nil
}

// ReadyAt is Ready with a bound: it returns cycle when cmd may issue now,
// and otherwise the cycle the first rejecting constraint clears — the
// TimingError's ReadyAt, or NeverReady for a state rejection. While the
// channel state stays unchanged (Gen), cmd is not legal on any cycle
// before that bound, so a failed probe need not be repeated sooner.
func (ch *Channel) ReadyAt(cmd Command, cycle int64) int64 {
	at, _ := ch.canIssue(cmd, cycle, false)
	return at
}

// Bounds returns two lower bounds on the first cycle at or after from
// that accepts cmd, read from the same rules canIssue applies. bank is the
// latest clear cycle of its bank and bank-group rules. rank is the latest
// clear cycle of its rank-wide rules and, from there, of the channel's
// buses (BusBound). Both are at least from; a state rejection or an
// invalid target gives NeverReady. The tightest bound for one command is
// rank of Bounds(cmd, bank): its buses searched from the latest of all its
// other rules.
//
// The bounds hold while the channel state stays unchanged (Gen). Scopes
// says which commands move which part.
func (ch *Channel) Bounds(cmd Command, from int64) (bank, rank int64) {
	s := ch.Scopes(cmd.Kind, cmd.Rank, cmd.Bank)
	return max(from, s.Bank, s.Group), ch.BusBound(cmd.Kind, cmd.Rank, max(from, s.Rank))
}

// Scopes is a command's timing rules split by the state they read: the
// latest clear cycle of the rules of each scope, NeverCycle when the scope
// states none and NeverReady for a state rejection. The channel's buses
// are the fourth scope (BusBound).
type Scopes struct {
	// Bank is the bank's own state and timings: its open row, tRP, tRC,
	// tRCD, tRAS, tRTP and tWR (every bank's of the rank for REF). Only a
	// command to the bank, or a REF to its rank, moves it.
	Bank int64
	// Group is the DDR4 bank-group timings, tRRD_L, tCCD_L and tWTR_L,
	// stated only when Params.BankGroups > 1. Only an ACT or CAS to a bank
	// of the group moves it.
	Group int64
	// Rank is the rank-wide rules: tRFC, tRRD, tFAW, tCCD and tWTR. It is
	// the same for every bank of the rank, and only a command to the rank
	// moves it.
	Rank int64
}

// Scopes returns the scopes of a command of kind k to the rank and bank
// (any bank for REF), read from the same rules canIssue applies. Besides
// the commands each scope names, a derate moves them all. An invalid
// target gives NeverReady in every scope.
func (ch *Channel) Scopes(k Kind, rank, bank int) Scopes {
	if !ch.valid(k, rank, bank) {
		return Scopes{NeverReady, NeverReady, NeverReady}
	}
	var v verdict
	v.reset(NeverCycle)
	ch.rules(k, rank, bank, &v)
	return Scopes{Bank: v.bank, Group: v.group, Rank: v.rank}
}

// BusBound returns the first cycle at or after from on which the
// channel's buses accept a command of kind k to the rank: the command bus
// and, for a column command, the data bus for its burst. It reads no rank
// or bank state, only the rank a burst belongs to. Every command moves
// the command bus, and every CAS the data bus. The data bus is searched
// from from because its free cycles are not upward-closed: a write's
// burst can fit ahead of a read burst already scheduled, so a cycle free
// of bursts says nothing of the cycles after it.
func (ch *Channel) BusBound(k Kind, rank int, from int64) int64 {
	at := max(from, ch.busFree())
	if lat, ok := ch.dataLatency(k); ok && at < NeverReady {
		for {
			next, _ := ch.dataConflict(rank, at, at+lat)
			if next == at {
				break
			}
			at = next
		}
	}
	return at
}

// busFree is the first cycle the command bus is free: one command per
// cycle, in order.
func (ch *Channel) busFree() int64 { return ch.lastCmdCycle + 1 }

// Gen counts the channel's state changes: every applied command and every
// derate. A ReadyAt bound holds for as long as Gen stays the same.
func (ch *Channel) Gen() uint64 { return ch.gen }

// valid reports whether the kind, rank and bank exist. Only REF carries
// no bank.
func (ch *Channel) valid(k Kind, rank, bank int) bool {
	return uint(rank) < uint(len(ch.ranks)) && k <= KindRefresh &&
		(k == KindRefresh || uint(bank) < uint(ch.P.BanksPerRank))
}

// targetError says why valid rejects cmd.
func (ch *Channel) targetError(cmd Command) error {
	switch {
	case cmd.Rank < 0 || cmd.Rank >= len(ch.ranks):
		return fmt.Errorf("dram: rank %d out of range [0,%d)", cmd.Rank, len(ch.ranks))
	case cmd.Kind > KindRefresh:
		return fmt.Errorf("dram: unknown command kind %v", cmd.Kind)
	}
	return fmt.Errorf("dram: bank %d out of range [0,%d)", cmd.Bank, ch.P.BanksPerRank)
}

// dataLatency returns the cycles from a column command to its data burst
// (tCAS for a read, tCWD for a write), and false for a command with no
// burst.
func (ch *Channel) dataLatency(k Kind) (int64, bool) {
	switch k {
	case KindRead, KindReadAP:
		return int64(ch.P.TCAS), true
	case KindWrite, KindWriteAP:
		return int64(ch.P.TCWD), true
	}
	return 0, false
}

// canIssue is the shared check body. It returns cycle and nil when cmd may
// issue, and otherwise the first rejecting rule's clear cycle and an
// error; explain selects between detailed TimingError construction and the
// shared probe sentinel. The data bus is checked last, once every other
// rule passes.
func (ch *Channel) canIssue(cmd Command, cycle int64, explain bool) (int64, error) {
	if !ch.valid(cmd.Kind, cmd.Rank, cmd.Bank) {
		return NeverReady, ch.targetError(cmd)
	}
	var v verdict
	v.reset(cycle)
	ch.rules(cmd.Kind, cmd.Rank, cmd.Bank, &v)
	if v.at > cycle {
		return v.reject(cmd, explain)
	}
	if lat, ok := ch.dataLatency(cmd.Kind); ok {
		return ch.checkDataBus(cmd, cycle, cycle+lat, explain)
	}
	return cycle, nil
}

// rules states every timing rule of a command of kind k to the rank and
// bank once, in the order canIssue reports them, and records into v each
// rule that rejects the probed cycle, with its scope and clear cycle. The
// target must be valid. The command comes as fields: copying a Command
// stores its kind as one byte and reads it back in a wide load, which the
// store buffer cannot forward.
func (ch *Channel) rules(k Kind, rank, bank int, v *verdict) {
	v.busRule("command bus (one command per cycle, in order)", ch.busFree())
	rk := &ch.ranks[rank]
	v.rankRule("tRFC (refresh in progress)", rk.refreshUntil)

	// The bank-group rules are stated only with bank groups on: without
	// them each restates the rank rule before it with the same clear cycle.
	p := &ch.P
	der := ch.der(rank)
	groups := p.BankGroups > 1
	switch k {
	case KindActivate:
		bk := ch.bank(rank, bank)
		if bk.openRow != ClosedRow {
			v.bankRule("bank already open (needs PRE)", NeverReady)
		}
		if bk.prechargeStart != NeverCycle {
			v.bankRule("tRP", bk.prechargeStart+int64(p.TRP+der.TRP))
		}
		v.bankRule("tRC", bk.lastAct+int64(p.TRC+der.TRC))
		v.rankRule("tRRD", rk.actHist[0]+int64(p.RRDOther()+der.TRRD))
		if groups {
			v.groupRule("tRRD_L (same bank group)", rk.groups[p.BankGroup(bank)].lastAct+int64(p.RRDSame()+der.TRRD))
		}
		if rk.actHist[3] != NeverCycle {
			v.rankRule("tFAW", rk.actHist[3]+int64(p.TFAW+der.TFAW))
		}

	case KindRead, KindReadAP:
		bk := ch.bank(rank, bank)
		if bk.openRow == ClosedRow {
			v.bankRule("read to closed bank", NeverReady)
		}
		v.bankRule("tRCD", bk.lastAct+int64(p.TRCD+der.TRCD))
		v.rankRule("tCCD", rk.lastCAS+int64(p.CCDOther()+der.TCCD))
		v.rankRule("tWTR", rk.lastWriteDataEnd+int64(p.WTROther()+der.TWTR))
		if groups {
			g := &rk.groups[p.BankGroup(bank)]
			v.groupRule("tCCD_L (same bank group)", g.lastCAS+int64(p.CCDSame()+der.TCCD))
			v.groupRule("tWTR_L (same bank group)", g.lastWriteDataEnd+int64(p.WTRSame()+der.TWTR))
		}

	case KindWrite, KindWriteAP:
		bk := ch.bank(rank, bank)
		if bk.openRow == ClosedRow {
			v.bankRule("write to closed bank", NeverReady)
		}
		v.bankRule("tRCD", bk.lastAct+int64(p.TRCD+der.TRCD))
		v.rankRule("tCCD", rk.lastCAS+int64(p.CCDOther()+der.TCCD))
		if groups {
			v.groupRule("tCCD_L (same bank group)", rk.groups[p.BankGroup(bank)].lastCAS+int64(p.CCDSame()+der.TCCD))
		}

	case KindPrecharge:
		bk := ch.bank(rank, bank)
		if bk.openRow == ClosedRow {
			v.bankRule("precharge to closed bank", NeverReady)
		}
		v.bankRule("tRAS", bk.lastAct+int64(p.TRAS+der.TRAS))
		v.bankRule("tRTP", bk.lastReadCAS+int64(p.TRTP+der.TRTP))
		v.bankRule("tWR", bk.writeDataEnd+int64(p.TWR+der.TWR))

	case KindRefresh:
		for b := range rk.banks {
			bk := &rk.banks[b]
			if bk.openRow != ClosedRow {
				v.openBank("refresh with bank %d open", b)
			}
			if bk.prechargeStart != NeverCycle {
				v.bankRule("tRP before refresh", bk.prechargeStart+int64(p.TRP+der.TRP))
			}
		}
	}
}

// dataConflict checks a burst starting at dataStart for a command issued
// at cycle against recent and scheduled transfers: bursts must not
// overlap, and transfers on different ranks must be separated by tRTRS. A
// conflicting burst clears once the command's own burst starts gap cycles
// after it ends; the command's data latency turns that into a command
// cycle. Each conflicting burst blocks every cycle up to its own clear
// cycle, so the bound is the latest of them. It returns that bound and the
// index of the burst that sets it, or cycle and -1 when no burst
// conflicts. It reads the command's rank and kind, never its bank.
func (ch *Channel) dataConflict(rank int, cycle, dataStart int64) (int64, int) {
	p := &ch.P
	end := dataStart + int64(p.TBURST)
	readyAt, last := cycle, -1
	for i, s := range ch.dataOcc {
		gap := int64(0)
		if s.rank != rank {
			gap = int64(p.TRTRS)
		}
		if dataStart < s.end+gap && s.start < end+gap {
			if at := s.end + gap - (dataStart - cycle); at > readyAt {
				readyAt, last = at, i
			}
		}
	}
	return readyAt, last
}

// checkDataBus is canIssue's data-bus rule (see dataConflict).
func (ch *Channel) checkDataBus(cmd Command, cycle, dataStart int64, explain bool) (int64, error) {
	readyAt, last := ch.dataConflict(cmd.Rank, cycle, dataStart)
	if last < 0 {
		return cycle, nil
	}
	if !explain {
		return readyAt, errNotReady
	}
	s := ch.dataOcc[last]
	return readyAt, &TimingError{Cmd: cmd, Cycle: cycle,
		Constraint: fmt.Sprintf("data bus conflict with rank %d burst [%d,%d)", s.rank, s.start, s.end),
		ReadyAt:    readyAt}
}

// Issue applies cmd at cycle, first validating it with CanIssue.
func (ch *Channel) Issue(cmd Command, cycle int64) error {
	return ch.IssueEx(cmd, cycle, false)
}

// IssueEx is Issue with control over suppression: a suppressed command
// advances all timing state (so the pipeline shape is unchanged) but is
// counted separately so the energy model can elide the DRAM operation.
func (ch *Channel) IssueEx(cmd Command, cycle int64, suppressed bool) error {
	if err := ch.CanIssue(cmd, cycle); err != nil {
		return err
	}
	ch.apply(cmd, cycle, suppressed)
	return nil
}

// TryIssue is IssueEx for schedulers that probe legality and back off on a
// rejection, in one pass of the checks and without allocating. When cmd
// may issue at cycle it applies it and returns cycle. Otherwise it changes
// nothing and returns ReadyAt's bound.
func (ch *Channel) TryIssue(cmd Command, cycle int64, suppressed bool) (readyAt int64) {
	at, err := ch.canIssue(cmd, cycle, false)
	if err != nil {
		return at
	}
	ch.apply(cmd, cycle, suppressed)
	return cycle
}

// apply updates the channel state for a command canIssue accepted.
func (ch *Channel) apply(cmd Command, cycle int64, suppressed bool) {
	p := &ch.P
	rk := &ch.ranks[cmd.Rank]
	ch.gen++
	ch.lastCmdCycle = cycle
	ch.Counters.CmdBusBusy++

	switch cmd.Kind {
	case KindActivate:
		bk := ch.bank(cmd.Rank, cmd.Bank)
		bk.openRow = cmd.Row
		bk.lastAct = cycle
		bk.prechargeStart = NeverCycle
		copy(rk.actHist[1:], rk.actHist[:3])
		rk.actHist[0] = cycle
		rk.groups[p.BankGroup(cmd.Bank)].lastAct = cycle
		if suppressed {
			ch.Counters.SuppressedActs++
		} else {
			ch.Counters.Acts++
		}

	case KindRead, KindReadAP:
		bk := ch.bank(cmd.Rank, cmd.Bank)
		bk.lastReadCAS = cycle
		rk.lastCAS = cycle
		rk.groups[p.BankGroup(cmd.Bank)].lastCAS = cycle
		ch.recordData(cmd.Rank, cycle+int64(p.TCAS))
		if cmd.Kind == KindReadAP {
			der := ch.der(cmd.Rank)
			start := cycle + int64(p.TRTP+der.TRTP)
			if s := bk.lastAct + int64(p.TRAS+der.TRAS); s > start {
				start = s
			}
			bk.prechargeStart = start
			bk.openRow = ClosedRow
			if suppressed {
				ch.Counters.SuppressedPrecharges++
			} else {
				ch.Counters.Precharges++
			}
		}
		if suppressed {
			ch.Counters.SuppressedReads++
		} else {
			ch.Counters.Reads++
			ch.Counters.DataBusBusy += int64(p.TBURST)
		}

	case KindWrite, KindWriteAP:
		bk := ch.bank(cmd.Rank, cmd.Bank)
		rk.lastCAS = cycle
		rk.groups[p.BankGroup(cmd.Bank)].lastCAS = cycle
		dataEnd := cycle + int64(p.TCWD) + int64(p.TBURST)
		bk.writeDataEnd = dataEnd
		rk.lastWriteDataEnd = dataEnd
		rk.groups[p.BankGroup(cmd.Bank)].lastWriteDataEnd = dataEnd
		ch.recordData(cmd.Rank, cycle+int64(p.TCWD))
		if cmd.Kind == KindWriteAP {
			der := ch.der(cmd.Rank)
			start := dataEnd + int64(p.TWR+der.TWR)
			if s := bk.lastAct + int64(p.TRAS+der.TRAS); s > start {
				start = s
			}
			bk.prechargeStart = start
			bk.openRow = ClosedRow
			if suppressed {
				ch.Counters.SuppressedPrecharges++
			} else {
				ch.Counters.Precharges++
			}
		}
		if suppressed {
			ch.Counters.SuppressedWrites++
		} else {
			ch.Counters.Writes++
			ch.Counters.DataBusBusy += int64(p.TBURST)
		}

	case KindPrecharge:
		bk := ch.bank(cmd.Rank, cmd.Bank)
		bk.prechargeStart = cycle
		bk.openRow = ClosedRow
		if suppressed {
			ch.Counters.SuppressedPrecharges++
		} else {
			ch.Counters.Precharges++
		}

	case KindRefresh:
		rk.refreshUntil = cycle + int64(p.TRFC)
		// After tRFC, banks are precharged and immediately activatable.
		for b := range rk.banks {
			rk.banks[b].prechargeStart = rk.refreshUntil - int64(p.TRP)
		}
		ch.Counters.Refreshes++
	}

	if ch.OnIssue != nil {
		ch.OnIssue(cmd, cycle, suppressed)
	}
}

// recordData adds the burst of the command issued at lastCmdCycle and drops
// the bursts no later command can conflict with. A later command issues
// after lastCmdCycle and starts its data at least min(tCAS, tCWD) cycles
// after it issues, and a burst constrains it only while the burst's end
// plus at most tRTRS lies beyond that start. Bursts never overlap, so a
// handful stay live.
func (ch *Channel) recordData(rank int, start int64) {
	p := &ch.P
	horizon := ch.lastCmdCycle + 1 + int64(min(p.TCAS, p.TCWD)) - int64(p.TRTRS)
	live := ch.dataOcc[:0]
	for _, s := range ch.dataOcc {
		if s.end > horizon {
			live = append(live, s)
		}
	}
	ch.dataOcc = append(live, dataSlot{start: start, end: start + int64(p.TBURST), rank: rank})
}
