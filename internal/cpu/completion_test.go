package cpu

import (
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
)

// shuffledMem completes reads in a seeded random order, not the order they
// were issued, and logs every read it accepted with whether it completed.
type shuffledMem struct {
	rng     *trace.RNG
	log     []*loggedRead
	pending []*loggedRead
	peak    int // most reads in flight at once
}

type loggedRead struct {
	done  func()
	fired bool
}

func (m *shuffledMem) EnqueueRead(_ int, _ dram.Address, done func()) bool {
	r := &loggedRead{done: done}
	m.log = append(m.log, r)
	m.pending = append(m.pending, r)
	m.peak = max(m.peak, len(m.pending))
	return true
}

func (m *shuffledMem) EnqueueWrite(int, dram.Address) bool { return true }

// completeRandom completes one pending read picked at random.
func (m *shuffledMem) completeRandom() {
	if len(m.pending) == 0 {
		return
	}
	i := m.rng.Intn(len(m.pending))
	r := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	r.fired = true
	r.done()
}

// TestCompletionCallbacksSizedToReadsInFlight feeds a core completions in
// random order. Each completion must mark exactly the read it belongs to,
// also when its callback is reissued while the callback's previous read,
// done but not retired, is still listed; and the core must build fewer
// callbacks than twice its peak number of reads in flight.
func TestCompletionCallbacksSizedToReadsInFlight(t *testing.T) {
	rng := trace.NewRNG(5)
	refs := make([]trace.Ref, 4000)
	for i := range refs {
		refs[i] = trace.Ref{Gap: rng.Intn(6)}
	}
	mem := &shuffledMem{rng: trace.NewRNG(9)}
	var st stats.Domain
	c := NewCore(0, &trace.SliceStream{Refs: refs}, mem, &st)
	for cycle := 0; cycle < 20_000; cycle++ {
		c.Cycle()
		for k := rng.Intn(3); k > 0; k-- {
			mem.completeRandom()
		}
		// The core lists its unretired reads in issue order: the tail of
		// the memory's log. Each must be done exactly when it completed.
		tail := mem.log[len(mem.log)-len(c.reads):]
		for i, r := range c.reads {
			if r.done != tail[i].fired {
				t.Fatalf("cycle %d: read at instruction %d done=%v, its completion fired=%v",
					cycle, r.idx, r.done, tail[i].fired)
			}
		}
	}
	if len(mem.log) < 1000 {
		t.Fatalf("only %d reads issued; the run exercises too little reuse", len(mem.log))
	}
	if len(c.dones) >= 2*mem.peak {
		t.Errorf("built %d completion callbacks for at most %d reads in flight", len(c.dones), mem.peak)
	}
	if 2*mem.peak > c.ROBSize {
		t.Errorf("peak %d reads in flight fills half the %d-entry ROB, so the bound says nothing", mem.peak, c.ROBSize)
	}
	t.Logf("%d reads, peak %d in flight, %d callbacks", len(mem.log), mem.peak, len(c.dones))
}

// instantMem completes every read inside EnqueueRead, before the core has
// taken the read's callback off its free list (fsbench's core replay
// drives a core this way).
type instantMem struct{}

func (instantMem) EnqueueRead(_ int, _ dram.Address, done func()) bool { done(); return true }
func (instantMem) EnqueueWrite(int, dram.Address) bool                 { return true }

// TestInstantCompletionReusesOneCallback: a read that completes while it
// is being enqueued leaves its callback free exactly once, so a core whose
// reads all complete at once builds one callback and never stalls.
func TestInstantCompletionReusesOneCallback(t *testing.T) {
	var st stats.Domain
	refs := []trace.Ref{{Gap: 1}, {Gap: 2}, {Gap: 0}, {Gap: 3, Write: true}, {Gap: 1}}
	c := NewCore(0, &trace.SliceStream{Refs: refs}, instantMem{}, &st)
	for i := 0; i < 1000; i++ {
		c.Cycle()
	}
	if len(c.dones) != 1 || len(c.free) != 1 {
		t.Errorf("%d callbacks built, %d free; want 1 and 1", len(c.dones), len(c.free))
	}
	if got := c.Retired(); got < 4*999-8 {
		t.Errorf("retired %d in 1000 cycles; instant reads should not stall the core", got)
	}
}
