package obs

import "fsmem/internal/dram"

// EventKind classifies a trace event.
type EventKind uint8

// The event taxonomy. Command events mirror the DRAM bus; span events mark
// the per-domain request lifecycle (enqueue -> first command -> delivery);
// the remaining kinds record FS slot substitutions and rejected enqueues.
const (
	// EvCmd is one command on the channel's command bus (Cmd/Rank/Bank/
	// Row/Col from the command; FlagSuppressed marks energy-elided ops).
	EvCmd EventKind = iota
	// EvEnqueue is a demand read entering its domain's transaction queue.
	EvEnqueue
	// EvFirstCmd is a request's first DRAM command issuing; Arg is the
	// queue delay in bus cycles.
	EvFirstCmd
	// EvDeliver is demand-read data delivered to the core; Arg is the full
	// arrival-to-delivery latency in bus cycles.
	EvDeliver
	// EvWriteDone is a write-back retiring from the controller.
	EvWriteDone
	// EvDummy is a completed dummy operation (FS shaping traffic).
	EvDummy
	// EvPrefetchFill is a completed prefetch filling the prefetch buffer.
	EvPrefetchFill
	// EvDummySlot is a Fixed Service slot that carried no demand
	// transaction; Arg distinguishes the substitution (SlotDummy,
	// SlotPowerDown, SlotSkip, SlotRefresh).
	EvDummySlot
	// EvQueueFull is a rejected enqueue (Arg 0 = read queue, 1 = write
	// buffer).
	EvQueueFull
)

var eventNames = [...]string{
	EvCmd:          "cmd",
	EvEnqueue:      "enq",
	EvFirstCmd:     "first",
	EvDeliver:      "deliver",
	EvWriteDone:    "wdone",
	EvDummy:        "dummy",
	EvPrefetchFill: "pfill",
	EvDummySlot:    "slot",
	EvQueueFull:    "qfull",
}

// String names the kind as it appears in exports.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "ev?"
}

// EvDummySlot substitution codes (Event.Arg).
const (
	SlotDummy     = 0 // a fabricated dummy transaction filled the slot
	SlotPowerDown = 1 // the slot's rank set powered down instead (energy opt. 3)
	SlotSkip      = 2 // transient hazard: the slot idled, grid unchanged
	SlotRefresh   = 3 // the slot carried a refresh for one of the domain's ranks
)

// Event flags.
const (
	// FlagSuppressed marks a command whose timing footprint was modeled but
	// whose DRAM operation was elided (FS energy optimizations).
	FlagSuppressed uint8 = 1 << iota
	// FlagWrite marks the request as a write where the kind is ambiguous.
	FlagWrite
)

// Event is one fixed-size trace record. It deliberately contains no
// pointers: recording is a single struct copy into the ring.
type Event struct {
	Cycle  int64
	Arg    int64
	Kind   EventKind
	Cmd    dram.Kind
	Flags  uint8
	Domain int16
	Chan   int16 // memory channel the event occurred on (0 in single-channel runs)
	Rank   int16
	Bank   int16
	Row    int32
	Col    int32
}

// DefaultTraceCap is the ring capacity used when Options.TraceCap is 0:
// large enough to hold the full tail of a schedule deviation, small enough
// that per-shard tracers stay cheap.
const DefaultTraceCap = 1 << 14

// Options configures observation for one run.
type Options struct {
	// TraceCap bounds the tracer's event ring (0 = DefaultTraceCap). When
	// the ring is full the oldest events are overwritten — forensics wants
	// the run's tail — and Tracer.Dropped() reports how many.
	TraceCap int
}

// Tracer records simulation events into a bounded preallocated ring.
// A nil *Tracer is the disabled state: every method returns immediately
// after a nil check, so instrumentation points cost one branch when
// tracing is off.
//
// A tracer belongs to one simulation run (single goroutine); determinism
// across the parallel engine's worker counts follows from each run owning
// its own tracer and the simulation itself being deterministic.
type Tracer struct {
	ring    []Event
	head    int // next overwrite position once len(ring) == cap(ring)
	dropped int64
	channel int16 // stamped into every record (multi-channel fabric)
}

// SetChannel sets the memory-channel id stamped into every subsequent
// event. The fabric gives each channel's controller its own tracer and
// tags it here; single-channel runs leave the default 0.
func (t *Tracer) SetChannel(ch int) {
	if t == nil {
		return
	}
	t.channel = int16(ch)
}

// NewTracer builds a tracer per the options (nil options = defaults).
func NewTracer(o *Options) *Tracer {
	cap := DefaultTraceCap
	if o != nil && o.TraceCap > 0 {
		cap = o.TraceCap
	}
	return &Tracer{ring: make([]Event, 0, cap)}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded events in recording order. The slice aliases
// the ring; callers must not record concurrently (runs are over when
// exporting).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if len(t.ring) < cap(t.ring) || t.head == 0 {
		return t.ring
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

func (t *Tracer) record(e Event) {
	e.Chan = t.channel
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.head] = e
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	t.dropped++
}

// Merge combines per-channel tracers into one chronological trace. Each
// tracer's events are already cycle-ordered (recording follows the
// simulation clock), so this is a k-way merge: ties resolve in argument
// order, which the fabric passes in channel order — deterministic for a
// deterministic simulation. Dropped counts sum. Nil tracers are skipped;
// the result is never nil.
func Merge(ts ...*Tracer) *Tracer {
	var events [][]Event
	var dropped int64
	total := 0
	for _, t := range ts {
		if t == nil {
			continue
		}
		es := t.Events()
		events = append(events, es)
		dropped += t.Dropped()
		total += len(es)
	}
	merged := &Tracer{ring: make([]Event, 0, total), dropped: dropped}
	idx := make([]int, len(events))
	for len(merged.ring) < total {
		best := -1
		for i, es := range events {
			if idx[i] >= len(es) {
				continue
			}
			if best < 0 || es[idx[i]].Cycle < events[best][idx[best]].Cycle {
				best = i
			}
		}
		merged.ring = append(merged.ring, events[best][idx[best]])
		idx[best]++
	}
	return merged
}

// Command records one bus command.
func (t *Tracer) Command(cmd dram.Command, cycle int64, suppressed bool) {
	if t == nil {
		return
	}
	var flags uint8
	if suppressed {
		flags |= FlagSuppressed
	}
	t.record(Event{
		Cycle: cycle, Kind: EvCmd, Cmd: cmd.Kind, Flags: flags,
		Domain: int16(cmd.Domain), Rank: int16(cmd.Rank), Bank: int16(cmd.Bank),
		Row: int32(cmd.Row), Col: int32(cmd.Col),
	})
}

// Enqueue records a demand read entering the controller.
func (t *Tracer) Enqueue(domain int, a dram.Address, cycle int64) {
	if t == nil {
		return
	}
	t.record(Event{
		Cycle: cycle, Kind: EvEnqueue, Domain: int16(domain),
		Rank: int16(a.Rank), Bank: int16(a.Bank), Row: int32(a.Row), Col: int32(a.Col),
	})
}

// FirstCommand records a request's first DRAM command; wait is the queue
// delay in bus cycles.
func (t *Tracer) FirstCommand(domain int, a dram.Address, cycle, wait int64, write bool) {
	if t == nil {
		return
	}
	var flags uint8
	if write {
		flags |= FlagWrite
	}
	t.record(Event{
		Cycle: cycle, Kind: EvFirstCmd, Arg: wait, Flags: flags, Domain: int16(domain),
		Rank: int16(a.Rank), Bank: int16(a.Bank), Row: int32(a.Row), Col: int32(a.Col),
	})
}

// Complete records a request retiring from the controller as the given
// lifecycle kind (EvDeliver, EvWriteDone, EvDummy, EvPrefetchFill); arg is
// the arrival-to-delivery latency for EvDeliver.
func (t *Tracer) Complete(kind EventKind, domain int, a dram.Address, cycle, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{
		Cycle: cycle, Kind: kind, Arg: arg, Domain: int16(domain),
		Rank: int16(a.Rank), Bank: int16(a.Bank), Row: int32(a.Row), Col: int32(a.Col),
	})
}

// DummySlot records an FS slot substitution (a Slot* code).
func (t *Tracer) DummySlot(domain int, cycle int64, sub int64) {
	if t == nil {
		return
	}
	t.record(Event{Cycle: cycle, Kind: EvDummySlot, Arg: sub, Domain: int16(domain)})
}

// QueueFull records a rejected enqueue (write selects the write buffer).
func (t *Tracer) QueueFull(domain int, cycle int64, write bool) {
	if t == nil {
		return
	}
	arg := int64(0)
	if write {
		arg = 1
	}
	t.record(Event{Cycle: cycle, Kind: EvQueueFull, Arg: arg, Domain: int16(domain)})
}
