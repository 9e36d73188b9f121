package mem

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/prefetch"
)

// nopSched issues nothing; tests drive the controller directly.
type nopSched struct{}

func (nopSched) Name() string     { return "nop" }
func (nopSched) Tick(*Controller) {}

func newCtl(domains int) *Controller {
	return NewController(dram.DDR3_1600(), DefaultConfig(domains), nopSched{})
}

func addr(rank, bank, row int) dram.Address { return dram.Address{Rank: rank, Bank: bank, Row: row} }

func TestEnqueueBackpressure(t *testing.T) {
	c := newCtl(2)
	for i := 0; i < c.Cfg.ReadCap; i++ {
		if !c.EnqueueRead(0, addr(0, 0, i), nil) {
			t.Fatalf("read %d rejected below capacity", i)
		}
	}
	if c.EnqueueRead(0, addr(0, 0, 99), nil) {
		t.Fatal("read accepted above capacity")
	}
	// Domain 1 is unaffected.
	if !c.EnqueueRead(1, addr(1, 0, 0), nil) {
		t.Fatal("other domain's queue should be independent")
	}
	for i := 0; i < c.Cfg.WriteCap; i++ {
		if !c.EnqueueWrite(0, addr(0, 1, i)) {
			t.Fatalf("write %d rejected below capacity", i)
		}
	}
	if c.EnqueueWrite(0, addr(0, 1, 99)) {
		t.Fatal("write accepted above capacity")
	}
	if c.PendingReads() != c.Cfg.ReadCap+1 || c.PendingWrites() != c.Cfg.WriteCap {
		t.Errorf("pending counts %d/%d", c.PendingReads(), c.PendingWrites())
	}
}

func TestCompletionOrderingAndStats(t *testing.T) {
	c := newCtl(1)
	var order []int
	mk := func(id int, cycle int64) {
		req := &Request{Domain: 0, Addr: addr(0, 0, id)}
		req.done = func() { order = append(order, id) }
		c.CompleteAt(req, cycle)
	}
	mk(2, 20)
	mk(1, 10)
	mk(3, 30)
	for i := 0; i < 40; i++ {
		c.Tick()
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v", order)
	}
	if c.Dom[0].Reads != 3 {
		t.Errorf("Reads = %d", c.Dom[0].Reads)
	}
	if c.Dom[0].ReadLatencyCount != 3 || c.Dom[0].ReadLatencySum == 0 {
		t.Errorf("latency accounting: %+v", c.Dom[0])
	}
}

func TestFinishClassifiesRequests(t *testing.T) {
	c := newCtl(1)
	c.CompleteAt(&Request{Domain: 0, Write: true}, 1)
	c.CompleteAt(&Request{Domain: 0, Dummy: true}, 1)
	c.CompleteAt(&Request{Domain: 0, Prefetch: true}, 1)
	c.CompleteAt(&Request{Domain: 0}, 1)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	d := c.Dom[0]
	if d.Writes != 1 || d.Dummies != 1 || d.Prefetches != 1 || d.Reads != 1 {
		t.Errorf("classification: %+v", d)
	}
}

func TestPopAndRemove(t *testing.T) {
	c := newCtl(1)
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	c.EnqueueRead(0, addr(0, 0, 2), nil)
	r := c.PopRead(0)
	if r == nil || r.Addr.Row != 1 {
		t.Fatalf("PopRead = %+v", r)
	}
	r2 := c.ReadQ[0][0]
	if err := c.RemoveRead(r2); err != nil {
		t.Fatalf("RemoveRead: %v", err)
	}
	if c.PendingReads() != 0 {
		t.Fatal("remove failed")
	}
	if c.PopRead(0) != nil {
		t.Fatal("pop from empty queue should be nil")
	}
	c.EnqueueWrite(0, addr(0, 0, 3))
	w := c.PopWrite(0)
	if w == nil || !w.Write {
		t.Fatalf("PopWrite = %+v", w)
	}
	if c.PopWrite(0) != nil {
		t.Fatal("pop from empty write queue should be nil")
	}

	if err := c.RemoveRead(&Request{Domain: 0}); err == nil {
		t.Error("removing a foreign request should return an error")
	} else if fsmerr.CodeOf(err) != fsmerr.CodeQueue {
		t.Errorf("foreign remove: code = %q, want %q", fsmerr.CodeOf(err), fsmerr.CodeQueue)
	}
	if err := c.RemoveWrite(&Request{Domain: 99}); err == nil {
		t.Error("removing with an out-of-range domain should return an error")
	} else if fsmerr.CodeOf(err) != fsmerr.CodeQueue {
		t.Errorf("out-of-range remove: code = %q, want %q", fsmerr.CodeOf(err), fsmerr.CodeQueue)
	}
}

func TestRecordFirstCommandQueueDelay(t *testing.T) {
	c := newCtl(1)
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	req := c.ReadQ[0][0]
	for i := 0; i < 7; i++ {
		c.Tick()
	}
	c.RecordFirstCommand(req)
	if req.FirstCmd != 7 {
		t.Fatalf("FirstCmd = %d", req.FirstCmd)
	}
	if c.Dom[0].QueueDelaySum != 7 {
		t.Fatalf("QueueDelaySum = %d", c.Dom[0].QueueDelaySum)
	}
	// Idempotent.
	c.Tick()
	c.RecordFirstCommand(req)
	if c.Dom[0].QueueDelaySum != 7 {
		t.Error("RecordFirstCommand double-counted")
	}
}

func TestPrefetchBufferHit(t *testing.T) {
	c := newCtl(1)
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	a := addr(0, 3, 42)
	// A completed prefetch fills the buffer.
	c.CompleteAt(&Request{Domain: 0, Prefetch: true, Addr: a}, 1)
	c.Tick()
	c.Tick()
	done := false
	if !c.EnqueueRead(0, a, func() { done = true }) {
		t.Fatal("read rejected")
	}
	if c.PendingReads() != 0 {
		t.Fatal("prefetch hit should not enter the read queue")
	}
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	if !done {
		t.Fatal("prefetch-buffer hit did not complete quickly")
	}
	if c.Dom[0].UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches = %d", c.Dom[0].UsefulPrefetches)
	}
	// The buffer entry is consumed: a second read goes to the queue.
	c.EnqueueRead(0, a, nil)
	if c.PendingReads() != 1 {
		t.Error("second read should miss the prefetch buffer")
	}
}

func TestPrefetchBufferEviction(t *testing.T) {
	c := NewController(dram.DDR3_1600(), Config{Domains: 1, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 2}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	for i := 0; i < 3; i++ {
		c.CompleteAt(&Request{Domain: 0, Prefetch: true, Addr: addr(0, 0, i)}, int64(i+1))
	}
	for i := 0; i < 6; i++ {
		c.Tick()
	}
	if got := len(c.pfBuf[0]); got != 2 {
		t.Fatalf("prefetch buffer size %d, want 2 (evicted oldest)", got)
	}
	// The oldest fill (row 0) must be the evicted one.
	if _, ok := c.pfBuf[0][lineKey(addr(0, 0, 0))]; ok {
		t.Error("oldest prefetch not evicted")
	}
}

func TestDrained(t *testing.T) {
	c := newCtl(1)
	if !c.Drained() {
		t.Fatal("fresh controller should be drained")
	}
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	if c.Drained() {
		t.Fatal("queued read should block drained")
	}
}

// TestAgeViewMatchesStableSort checks the incrementally kept age views
// against their definition: after every step of a random sequence of
// enqueues (several domains per cycle, in shuffled domain order), full-queue
// rejects, prefetch-buffer hits that never enqueue, pops and removes
// (including failed removes), ByAge must equal a stable sort by Arrive of
// the per-domain queues concatenated in domain order.
func TestAgeViewMatchesStableSort(t *testing.T) {
	const domains = 4
	c := NewController(dram.DDR3_1600(), Config{Domains: domains, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 8}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	rng := rand.New(rand.NewPCG(3, 11))
	want := func(qs [][]*Request) []*Request {
		var out []*Request
		for _, q := range qs {
			out = append(out, q...)
		}
		slices.SortStableFunc(out, func(a, b *Request) int { return int(a.Arrive - b.Arrive) })
		return out
	}
	randAddr := func() dram.Address { return addr(rng.IntN(2), rng.IntN(8), rng.IntN(16)) }
	var rejects, pfHits int64
	for step := 0; step < 20000; step++ {
		d := rng.IntN(domains)
		switch op := rng.IntN(10); {
		case op < 3:
			if !c.EnqueueRead(d, randAddr(), nil) {
				rejects++
			}
		case op < 5:
			if !c.EnqueueWrite(d, randAddr()) {
				rejects++
			}
		case op == 5:
			// Fill the prefetch buffer, then read the line: a buffer hit
			// completes at once and must not enter the age view.
			a := randAddr()
			c.CompleteAt(&Request{Domain: d, Prefetch: true, Addr: a}, c.Cycle)
			c.Tick()
			before := c.Dom[d].UsefulPrefetches
			c.EnqueueRead(d, a, nil)
			pfHits += c.Dom[d].UsefulPrefetches - before
		case op == 6:
			if rng.IntN(2) == 0 {
				c.PopRead(d)
			} else {
				c.PopWrite(d)
			}
		case op == 7:
			qs, remove := c.ReadQ, c.RemoveRead
			if rng.IntN(2) == 0 {
				qs, remove = c.WriteQ, c.RemoveWrite
			}
			if q := qs[d]; len(q) > 0 {
				if err := remove(q[rng.IntN(len(q))]); err != nil {
					t.Fatal(err)
				}
			} else if err := remove(&Request{Domain: d}); err == nil {
				t.Fatal("removing a request that is not queued succeeded")
			}
		default:
			c.Tick()
		}
		for _, writes := range []bool{false, true} {
			qs := c.ReadQ
			if writes {
				qs = c.WriteQ
			}
			if got, exp := c.ByAge(writes), want(qs); !slices.Equal(got, exp) {
				t.Fatalf("step %d: ByAge(writes=%v) has %d requests out of order or missing; want %d", step, writes, len(got), len(exp))
			}
		}
		if c.PendingReads() != len(want(c.ReadQ)) || c.PendingWrites() != len(want(c.WriteQ)) {
			t.Fatalf("step %d: pending counts disagree with the queues", step)
		}
	}
	if rejects == 0 || pfHits == 0 {
		t.Fatalf("sequence never hit a full queue (%d) or the prefetch buffer (%d)", rejects, pfHits)
	}
}

// TestRequestRecyclingNeverAliases checks the request free list against
// seeded enqueue/issue/complete/remove/pop traffic, including
// prefetch-buffer hits. After every step no request on the free list may
// still be reachable from a per-domain queue, an age view or the completion
// heap, none may be on the list twice, and every one must be zeroed.
func TestRequestRecyclingNeverAliases(t *testing.T) {
	const domains = 4
	c := NewController(dram.DDR3_1600(), Config{Domains: domains, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 8}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	rng := rand.New(rand.NewPCG(5, 17))
	randAddr := func() dram.Address { return addr(rng.IntN(2), rng.IntN(8), rng.IntN(16)) }
	pick := func(d int) (q []*Request, remove func(*Request) error) {
		if rng.IntN(2) == 0 {
			return c.ReadQ[d], c.RemoveRead
		}
		return c.WriteQ[d], c.RemoveWrite
	}
	recycled := map[*Request]bool{}
	var reused, pfHits, delivered int
	for step := 0; step < 20000; step++ {
		d := rng.IntN(domains)
		switch op := rng.IntN(10); {
		case op < 2:
			c.EnqueueRead(d, randAddr(), func() { delivered++ })
		case op < 4:
			c.EnqueueWrite(d, randAddr())
		case op < 6:
			// Issue: a scheduler takes a queued request and schedules its
			// completion.
			if q, remove := pick(d); len(q) > 0 {
				r := q[rng.IntN(len(q))]
				if err := remove(r); err != nil {
					t.Fatal(err)
				}
				c.CompleteAt(r, c.Cycle+int64(rng.IntN(8)))
			}
		case op == 6:
			// A completed prefetch fills the buffer; reading the line hits.
			a := randAddr()
			c.CompleteAt(c.NewRequest(Request{Domain: d, Prefetch: true, Addr: a}), c.Cycle)
			c.Tick()
			before := c.Dom[d].UsefulPrefetches
			c.EnqueueRead(d, a, func() { delivered++ })
			pfHits += int(c.Dom[d].UsefulPrefetches - before)
		case op == 7:
			// Popped or removed without completing: never recycled.
			if rng.IntN(2) == 0 {
				c.PopRead(d)
			} else {
				c.PopWrite(d)
			}
		case op == 8:
			if q, remove := pick(d); len(q) > 0 {
				if err := remove(q[rng.IntN(len(q))]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			c.Tick()
		}

		live := map[*Request]string{}
		for d := range c.ReadQ {
			for _, r := range c.ReadQ[d] {
				live[r] = "ReadQ"
			}
			for _, r := range c.WriteQ[d] {
				live[r] = "WriteQ"
			}
		}
		for _, r := range c.ByAge(false) {
			live[r] = "ByAge(false)"
		}
		for _, r := range c.ByAge(true) {
			live[r] = "ByAge(true)"
		}
		for _, e := range c.completions {
			live[e.req] = "the completion heap"
		}
		for r := range live {
			if recycled[r] {
				reused++
				delete(recycled, r)
			}
		}
		onList := map[*Request]bool{}
		for _, r := range c.free {
			if where, ok := live[r]; ok {
				t.Fatalf("step %d: recycled request %p is still in %s", step, r, where)
			}
			if onList[r] {
				t.Fatalf("step %d: request %p is on the free list twice", step, r)
			}
			if !reflect.ValueOf(*r).IsZero() {
				t.Fatalf("step %d: recycled request not zeroed: %+v", step, *r)
			}
			onList[r] = true
			recycled[r] = true
		}
	}
	if reused == 0 || pfHits == 0 || delivered == 0 {
		t.Fatalf("sequence never reused a request (%d), hit the prefetch buffer (%d) or delivered a read (%d)", reused, pfHits, delivered)
	}
}
