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
// makes legal: a state rejection such as an ACT to an open bank, a CAS to
// a closed one or any command to a powered-down rank. Only another command
// (or a derate) can change the verdict.
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
	poweredDown      bool
	powerDownStart   int64
	powerUpReady     int64
	pdCycles         int64 // accumulated powered-down cycles

	// Per-bank-group state for DDR4 long timings (length BankGroups, or 1).
	groupLastAct          []int64
	groupLastCAS          []int64
	groupLastWriteDataEnd []int64
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
	PowerDowns, PowerUps                              int64
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
	now          int64      // latest cycle seen (for power-down accounting)
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
		rk.powerUpReady = NeverCycle
		for i := range rk.actHist {
			rk.actHist[i] = NeverCycle
		}
		rk.groupLastAct = make([]int64, groups)
		rk.groupLastCAS = make([]int64, groups)
		rk.groupLastWriteDataEnd = make([]int64, groups)
		for g := 0; g < groups; g++ {
			rk.groupLastAct[g] = NeverCycle
			rk.groupLastCAS[g] = NeverCycle
			rk.groupLastWriteDataEnd[g] = NeverCycle
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

// PoweredDown reports whether the rank is in a power-down state.
func (ch *Channel) PoweredDown(rank int) bool { return ch.ranks[rank].poweredDown }

// PowerDownCycles returns the accumulated powered-down cycles for the rank,
// counting an ongoing power-down up to the most recent command cycle seen.
func (ch *Channel) PowerDownCycles(rank int) int64 {
	rk := &ch.ranks[rank]
	c := rk.pdCycles
	if rk.poweredDown && ch.now > rk.powerDownStart {
		c += ch.now - rk.powerDownStart
	}
	return c
}

func (ch *Channel) bank(cmd Command) *bankState { return &ch.ranks[cmd.Rank].banks[cmd.Bank] }

// errNotReady is the shared rejection value of the allocation-free probe
// path: schedulers that poll legality every cycle and back off on failure
// never read the constraint detail, so building a TimingError for them
// would allocate on every failed probe of the hot loop.
var errNotReady = errors.New("dram: command not ready (probe)")

// errRankBusy is errNotReady for a rank-wide constraint: one that reads no
// state of the target bank or its bank group. The same kind of command to
// any bank of the rank is rejected on the same cycle and on every cycle up
// to the same clear cycle, so a scheduler may skip those probes.
var errRankBusy = errors.New("dram: rank not ready (probe)")

// reject rejects cmd on a bank-scoped constraint: bank state, tRP, tRC,
// tRCD, tRAS, tRTP, tWR or a bank-group _L timing.
func reject(explain bool, cmd Command, cycle int64, constraint string, readyAt int64) (int64, error) {
	if !explain {
		return readyAt, errNotReady
	}
	return readyAt, &TimingError{Cmd: cmd, Cycle: cycle, Constraint: constraint, ReadyAt: readyAt}
}

// rejectRank rejects cmd on a rank-wide constraint: the command bus, rank
// power state, tXP, tRFC, tRRD, tFAW, tCCD, tWTR or the data bus.
func rejectRank(explain bool, cmd Command, cycle int64, constraint string, readyAt int64) (int64, error) {
	if !explain {
		return readyAt, errRankBusy
	}
	return reject(explain, cmd, cycle, constraint, readyAt)
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

// Gen counts the channel's state changes: every applied command and every
// derate. A ReadyAt bound holds for as long as Gen stays the same.
func (ch *Channel) Gen() uint64 { return ch.gen }

// canIssue is the shared check body. It returns cycle and nil when cmd may
// issue, and otherwise the first rejecting constraint's clear cycle and an
// error; explain selects between detailed TimingError construction and the
// shared probe sentinels, errRankBusy for a rank-wide constraint and
// errNotReady for the rest. Each constraint rejects a contiguous run of
// cycles ending at its clear cycle, so that cycle is a lower bound on the
// first legal one.
func (ch *Channel) canIssue(cmd Command, cycle int64, explain bool) (int64, error) {
	if cmd.Rank < 0 || cmd.Rank >= len(ch.ranks) {
		return NeverReady, fmt.Errorf("dram: rank %d out of range [0,%d)", cmd.Rank, len(ch.ranks))
	}
	if cmd.Kind != KindRefresh && cmd.Kind != KindPowerDown && cmd.Kind != KindPowerUp {
		if cmd.Bank < 0 || cmd.Bank >= ch.P.BanksPerRank {
			return NeverReady, fmt.Errorf("dram: bank %d out of range [0,%d)", cmd.Bank, ch.P.BanksPerRank)
		}
	}
	if cycle <= ch.lastCmdCycle {
		return rejectRank(explain, cmd, cycle, "command bus (one command per cycle, in order)", ch.lastCmdCycle+1)
	}
	rk := &ch.ranks[cmd.Rank]
	if rk.poweredDown && cmd.Kind != KindPowerUp {
		return rejectRank(explain, cmd, cycle, "rank powered down", NeverReady)
	}
	if !rk.poweredDown && cycle < rk.powerUpReady && cmd.Kind != KindPowerDown {
		return rejectRank(explain, cmd, cycle, "tXP (power-up exit)", rk.powerUpReady)
	}
	if cycle < rk.refreshUntil && cmd.Kind != KindPowerDown && cmd.Kind != KindPowerUp {
		return rejectRank(explain, cmd, cycle, "tRFC (refresh in progress)", rk.refreshUntil)
	}

	p := &ch.P
	der := ch.der(cmd.Rank)
	switch cmd.Kind {
	case KindActivate:
		bk := ch.bank(cmd)
		if bk.openRow != ClosedRow {
			return reject(explain, cmd, cycle, "bank already open (needs PRE)", NeverReady)
		}
		if bk.prechargeStart != NeverCycle && cycle < bk.prechargeStart+int64(p.TRP+der.TRP) {
			return reject(explain, cmd, cycle, "tRP", bk.prechargeStart+int64(p.TRP+der.TRP))
		}
		if cycle < bk.lastAct+int64(p.TRC+der.TRC) {
			return reject(explain, cmd, cycle, "tRC", bk.lastAct+int64(p.TRC+der.TRC))
		}
		if cycle < rk.actHist[0]+int64(p.RRDOther()+der.TRRD) {
			return rejectRank(explain, cmd, cycle, "tRRD", rk.actHist[0]+int64(p.RRDOther()+der.TRRD))
		}
		if g := p.BankGroup(cmd.Bank); cycle < rk.groupLastAct[g]+int64(p.RRDSame()+der.TRRD) {
			return reject(explain, cmd, cycle, "tRRD_L (same bank group)", rk.groupLastAct[g]+int64(p.RRDSame()+der.TRRD))
		}
		if oldest := rk.actHist[3]; oldest != NeverCycle && cycle < oldest+int64(p.TFAW+der.TFAW) {
			return rejectRank(explain, cmd, cycle, "tFAW", oldest+int64(p.TFAW+der.TFAW))
		}

	case KindRead, KindReadAP:
		bk := ch.bank(cmd)
		if bk.openRow == ClosedRow {
			return reject(explain, cmd, cycle, "read to closed bank", NeverReady)
		}
		if cycle < bk.lastAct+int64(p.TRCD+der.TRCD) {
			return reject(explain, cmd, cycle, "tRCD", bk.lastAct+int64(p.TRCD+der.TRCD))
		}
		if cycle < rk.lastCAS+int64(p.CCDOther()+der.TCCD) {
			return rejectRank(explain, cmd, cycle, "tCCD", rk.lastCAS+int64(p.CCDOther()+der.TCCD))
		}
		if cycle < rk.lastWriteDataEnd+int64(p.WTROther()+der.TWTR) {
			return rejectRank(explain, cmd, cycle, "tWTR", rk.lastWriteDataEnd+int64(p.WTROther()+der.TWTR))
		}
		if g := p.BankGroup(cmd.Bank); true {
			if cycle < rk.groupLastCAS[g]+int64(p.CCDSame()+der.TCCD) {
				return reject(explain, cmd, cycle, "tCCD_L (same bank group)", rk.groupLastCAS[g]+int64(p.CCDSame()+der.TCCD))
			}
			if cycle < rk.groupLastWriteDataEnd[g]+int64(p.WTRSame()+der.TWTR) {
				return reject(explain, cmd, cycle, "tWTR_L (same bank group)", rk.groupLastWriteDataEnd[g]+int64(p.WTRSame()+der.TWTR))
			}
		}
		if at, err := ch.checkDataBus(cmd, cycle, cycle+int64(p.TCAS), explain); err != nil {
			return at, err
		}

	case KindWrite, KindWriteAP:
		bk := ch.bank(cmd)
		if bk.openRow == ClosedRow {
			return reject(explain, cmd, cycle, "write to closed bank", NeverReady)
		}
		if cycle < bk.lastAct+int64(p.TRCD+der.TRCD) {
			return reject(explain, cmd, cycle, "tRCD", bk.lastAct+int64(p.TRCD+der.TRCD))
		}
		if cycle < rk.lastCAS+int64(p.CCDOther()+der.TCCD) {
			return rejectRank(explain, cmd, cycle, "tCCD", rk.lastCAS+int64(p.CCDOther()+der.TCCD))
		}
		if g := p.BankGroup(cmd.Bank); cycle < rk.groupLastCAS[g]+int64(p.CCDSame()+der.TCCD) {
			return reject(explain, cmd, cycle, "tCCD_L (same bank group)", rk.groupLastCAS[g]+int64(p.CCDSame()+der.TCCD))
		}
		if at, err := ch.checkDataBus(cmd, cycle, cycle+int64(p.TCWD), explain); err != nil {
			return at, err
		}

	case KindPrecharge:
		bk := ch.bank(cmd)
		if bk.openRow == ClosedRow {
			return reject(explain, cmd, cycle, "precharge to closed bank", NeverReady)
		}
		if cycle < bk.lastAct+int64(p.TRAS+der.TRAS) {
			return reject(explain, cmd, cycle, "tRAS", bk.lastAct+int64(p.TRAS+der.TRAS))
		}
		if cycle < bk.lastReadCAS+int64(p.TRTP+der.TRTP) {
			return reject(explain, cmd, cycle, "tRTP", bk.lastReadCAS+int64(p.TRTP+der.TRTP))
		}
		if cycle < bk.writeDataEnd+int64(p.TWR+der.TWR) {
			return reject(explain, cmd, cycle, "tWR", bk.writeDataEnd+int64(p.TWR+der.TWR))
		}

	case KindRefresh:
		for b := range rk.banks {
			bk := &rk.banks[b]
			if bk.openRow != ClosedRow {
				if !explain {
					return NeverReady, errNotReady
				}
				return reject(explain, cmd, cycle, fmt.Sprintf("refresh with bank %d open", b), NeverReady)
			}
			if bk.prechargeStart != NeverCycle && cycle < bk.prechargeStart+int64(p.TRP+der.TRP) {
				return reject(explain, cmd, cycle, "tRP before refresh", bk.prechargeStart+int64(p.TRP+der.TRP))
			}
		}

	case KindPowerDown:
		for b := range rk.banks {
			if rk.banks[b].openRow != ClosedRow {
				if !explain {
					return NeverReady, errNotReady
				}
				return reject(explain, cmd, cycle, fmt.Sprintf("power-down with bank %d open", b), NeverReady)
			}
		}
		if cycle < rk.refreshUntil {
			return rejectRank(explain, cmd, cycle, "power-down during refresh", rk.refreshUntil)
		}

	case KindPowerUp:
		if !rk.poweredDown {
			return rejectRank(explain, cmd, cycle, "power-up of powered-up rank", NeverReady)
		}

	default:
		return NeverReady, fmt.Errorf("dram: unknown command kind %v", cmd.Kind)
	}
	return cycle, nil
}

// checkDataBus validates a burst starting at dataStart against recent and
// scheduled transfers: bursts must not overlap, and transfers on different
// ranks must be separated by tRTRS. A conflicting burst clears once the
// command's own burst starts gap cycles after it ends; the command's data
// latency (tCAS for a read, tCWD for a write) turns that into a command
// cycle. Each conflicting burst blocks every cycle up to its own clear
// cycle, so the bound is the latest of them. The constraint is rank-wide:
// it reads the command's rank and kind, never its bank.
func (ch *Channel) checkDataBus(cmd Command, cycle, dataStart int64, explain bool) (int64, error) {
	p := &ch.P
	end := dataStart + int64(p.TBURST)
	readyAt, last := cycle, -1
	for i, s := range ch.dataOcc {
		gap := int64(0)
		if s.rank != cmd.Rank {
			gap = int64(p.TRTRS)
		}
		if dataStart < s.end+gap && s.start < end+gap {
			if at := s.end + gap - (dataStart - cycle); at > readyAt {
				readyAt, last = at, i
			}
		}
	}
	if last < 0 {
		return cycle, nil
	}
	if !explain {
		return readyAt, errRankBusy
	}
	s := ch.dataOcc[last]
	return rejectRank(explain, cmd, cycle,
		fmt.Sprintf("data bus conflict with rank %d burst [%d,%d)", s.rank, s.start, s.end),
		readyAt)
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
// nothing and returns ReadyAt's bound, with rankWide set when the
// rejecting constraint holds for the whole rank: the same kind of command
// to any of the rank's banks is then not legal before that bound either.
func (ch *Channel) TryIssue(cmd Command, cycle int64, suppressed bool) (readyAt int64, rankWide bool) {
	at, err := ch.canIssue(cmd, cycle, false)
	if err != nil {
		return at, err == errRankBusy
	}
	ch.apply(cmd, cycle, suppressed)
	return cycle, false
}

// apply updates the channel state for a command canIssue accepted.
func (ch *Channel) apply(cmd Command, cycle int64, suppressed bool) {
	p := &ch.P
	rk := &ch.ranks[cmd.Rank]
	ch.gen++
	ch.lastCmdCycle = cycle
	if cycle > ch.now {
		ch.now = cycle
	}
	ch.Counters.CmdBusBusy++

	switch cmd.Kind {
	case KindActivate:
		bk := ch.bank(cmd)
		bk.openRow = cmd.Row
		bk.lastAct = cycle
		bk.prechargeStart = NeverCycle
		copy(rk.actHist[1:], rk.actHist[:3])
		rk.actHist[0] = cycle
		rk.groupLastAct[p.BankGroup(cmd.Bank)] = cycle
		if suppressed {
			ch.Counters.SuppressedActs++
		} else {
			ch.Counters.Acts++
		}

	case KindRead, KindReadAP:
		bk := ch.bank(cmd)
		bk.lastReadCAS = cycle
		rk.lastCAS = cycle
		rk.groupLastCAS[p.BankGroup(cmd.Bank)] = cycle
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
		bk := ch.bank(cmd)
		rk.lastCAS = cycle
		rk.groupLastCAS[p.BankGroup(cmd.Bank)] = cycle
		dataEnd := cycle + int64(p.TCWD) + int64(p.TBURST)
		bk.writeDataEnd = dataEnd
		rk.lastWriteDataEnd = dataEnd
		rk.groupLastWriteDataEnd[p.BankGroup(cmd.Bank)] = dataEnd
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
		bk := ch.bank(cmd)
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

	case KindPowerDown:
		rk.poweredDown = true
		rk.powerDownStart = cycle
		ch.Counters.PowerDowns++

	case KindPowerUp:
		rk.poweredDown = false
		rk.pdCycles += cycle - rk.powerDownStart
		rk.powerUpReady = cycle + int64(p.TXP)
		ch.Counters.PowerUps++
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
