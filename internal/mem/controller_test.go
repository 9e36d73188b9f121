package mem

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/prefetch"
)

// nopSched issues nothing; tests drive the controller directly.
type nopSched struct{}

func (nopSched) Name() string                  { return "nop" }
func (nopSched) Tick(*Controller)              {}
func (nopSched) NextEvent(c *Controller) int64 { return c.Cycle }

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

// TestPopAndRemove removes queued requests of both classes, the oldest
// and a later one, and checks that a request that is not queued, or names
// a domain out of range, is refused with a CodeQueue error naming its
// class.
func TestPopAndRemove(t *testing.T) {
	c := newCtl(1)
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	c.EnqueueRead(0, addr(0, 0, 2), nil)
	c.EnqueueRead(0, addr(0, 0, 3), nil)
	if r := c.ReadQ[0][0]; c.Remove(r) != nil || r.Addr.Row != 1 {
		t.Fatalf("removing the oldest read %+v failed", r)
	}
	r := c.ReadQ[0][1]
	if err := c.Remove(r); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if c.PendingReads() != 1 || c.ReadQ[0][0].Addr.Row != 2 {
		t.Fatal("remove failed")
	}
	if err := c.Remove(r); err == nil {
		t.Fatal("removing a request twice should return an error")
	}
	c.EnqueueWrite(0, addr(0, 0, 3))
	if err := c.Remove(c.WriteQ[0][0]); err != nil || c.PendingWrites() != 0 || c.PendingReads() != 1 {
		t.Fatalf("Remove(write) = %v with %d writes and %d reads left", err, c.PendingWrites(), c.PendingReads())
	}

	var e *fsmerr.Error
	if err := c.Remove(&Request{Domain: 0}); !errors.As(err, &e) {
		t.Errorf("removing a foreign request returned %v, want an fsmerr.Error", err)
	} else if e.Code != fsmerr.CodeQueue || e.Op != "mem.RemoveRead" {
		t.Errorf("foreign remove: code %q op %q, want %q and mem.RemoveRead", e.Code, e.Op, fsmerr.CodeQueue)
	}
	if err := c.Remove(&Request{Domain: 99, Write: true}); !errors.As(err, &e) {
		t.Errorf("removing with an out-of-range domain returned %v, want an fsmerr.Error", err)
	} else if e.Code != fsmerr.CodeQueue || e.Op != "mem.RemoveWrite" {
		t.Errorf("out-of-range remove: code %q op %q, want %q and mem.RemoveWrite", e.Code, e.Op, fsmerr.CodeQueue)
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

// TestBankViewMatchesQueues checks the incrementally kept bank views
// against their definition: after every step of a random sequence of
// enqueues (several domains per cycle, in shuffled domain order), full-queue
// rejects, prefetch-buffer hits that never enqueue, removals of the oldest
// and of any request (including failed removals), each bank's list must hold its requests in
// the order of a stable sort by Arrive of the per-domain queues concatenated in
// domain order, and Older must sort all queued requests into that order.
func TestBankViewMatchesQueues(t *testing.T) {
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
			q := c.ReadQ[d]
			if rng.IntN(2) != 0 {
				q = c.WriteQ[d]
			}
			if len(q) > 0 {
				if err := c.Remove(q[0]); err != nil {
					t.Fatal(err)
				}
			}
		case op == 7:
			qs, write := c.ReadQ, false
			if rng.IntN(2) == 0 {
				qs, write = c.WriteQ, true
			}
			if q := qs[d]; len(q) > 0 {
				if err := c.Remove(q[rng.IntN(len(q))]); err != nil {
					t.Fatal(err)
				}
			} else if err := c.Remove(&Request{Domain: d, Write: write}); err == nil {
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
			exp := want(qs)
			for k := 0; k < c.P.TotalBanks(); k++ {
				var bank []*Request
				for _, r := range exp {
					if c.bankOf(r) == k {
						bank = append(bank, r)
					}
				}
				if got := bankList(c, writes, k); !slices.Equal(got, bank) {
					t.Fatalf("step %d: bank %d's list (writes=%v) has %d requests out of order or missing; want %d", step, k, writes, len(got), len(bank))
				}
			}
			byOlder := slices.Clone(exp)
			slices.SortFunc(byOlder, func(a, b *Request) int {
				if Older(a, b) {
					return -1
				}
				if Older(b, a) {
					return 1
				}
				return 0
			})
			if !slices.Equal(byOlder, exp) {
				t.Fatalf("step %d: Older orders the queued requests (writes=%v) differently from arrival, domain and queue order", step, writes)
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

// bankList collects bank k's queued requests of one class by walking its
// list.
func bankList(c *Controller, writes bool, k int) []*Request {
	var out []*Request
	for r := c.BankHead(writes, k); r != nil; r = c.BankNext(r) {
		out = append(out, r)
	}
	return out
}

// TestRequestRecyclingNeverAliases checks the request free list against
// seeded enqueue/issue/complete/remove traffic, including
// prefetch-buffer hits. After every step no request on the free list may
// still be reachable from a per-domain queue, a bank view or the completion
// heap, none may be on the list twice, and every one must be zeroed.
func TestRequestRecyclingNeverAliases(t *testing.T) {
	const domains = 4
	c := NewController(dram.DDR3_1600(), Config{Domains: domains, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 8}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	rng := rand.New(rand.NewPCG(5, 17))
	randAddr := func() dram.Address { return addr(rng.IntN(2), rng.IntN(8), rng.IntN(16)) }
	pick := func(d int) []*Request {
		if rng.IntN(2) == 0 {
			return c.ReadQ[d]
		}
		return c.WriteQ[d]
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
			if q := pick(d); len(q) > 0 {
				r := q[rng.IntN(len(q))]
				if err := c.Remove(r); err != nil {
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
			// Removed without completing, oldest first or any: never
			// recycled.
			if q := pick(d); len(q) > 0 {
				if err := c.Remove(q[0]); err != nil {
					t.Fatal(err)
				}
			}
		case op == 8:
			if q := pick(d); len(q) > 0 {
				if err := c.Remove(q[rng.IntN(len(q))]); err != nil {
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
		for k := 0; k < c.P.TotalBanks(); k++ {
			for _, r := range bankList(c, false, k) {
				live[r] = "a read bank list"
			}
			for _, r := range bankList(c, true, k) {
				live[r] = "a write bank list"
			}
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

// TestRequestSize pins the request at 96 bytes: the enqueue number lives
// in the padding after Write, so the free list and the completion heap
// carry no more memory than before it.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Request{}) = %d, want 96", got)
	}
}

// TestCompletedReadsSumsDomains checks the controller's delivered-read
// count against the per-domain counts it stands for, across reads,
// writes, prefetch fills and prefetch-buffer hits.
func TestCompletedReadsSumsDomains(t *testing.T) {
	c := NewController(dram.DDR3_1600(), Config{Domains: 3, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 8}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	rng := rand.New(rand.NewPCG(9, 4))
	for step := 0; step < 5000; step++ {
		d := rng.IntN(3)
		a := addr(rng.IntN(2), rng.IntN(8), rng.IntN(16))
		switch rng.IntN(4) {
		case 0:
			c.EnqueueRead(d, a, nil)
		case 1:
			c.EnqueueWrite(d, a)
		case 2:
			c.CompleteAt(c.NewRequest(Request{Domain: d, Prefetch: true, Addr: a}), c.Cycle)
			c.Tick()
			c.EnqueueRead(d, a, nil) // a prefetch-buffer hit
		default:
			if q := c.ReadQ[d]; len(q) > 0 {
				r := q[rng.IntN(len(q))]
				if err := c.Remove(r); err != nil {
					t.Fatal(err)
				}
				c.CompleteAt(r, c.Cycle+int64(rng.IntN(4)))
			}
		}
		c.Tick()
		var sum int64
		for d := range c.Dom {
			sum += c.Dom[d].Reads
		}
		if got := c.CompletedReads(); got != sum {
			t.Fatalf("step %d: CompletedReads = %d, domains sum to %d", step, got, sum)
		}
	}
	var hits int64
	for d := range c.Dom {
		hits += c.Dom[d].UsefulPrefetches
	}
	if c.CompletedReads() == 0 || hits == 0 {
		t.Fatalf("sequence delivered %d reads and %d prefetch-buffer hits", c.CompletedReads(), hits)
	}
}
