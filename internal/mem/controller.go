// Package mem implements the memory-controller shell shared by every
// scheduling policy: per-security-domain transaction queues, write buffers,
// the completion machinery that returns read data to cores, and an optional
// per-domain prefetch engine. Scheduling policy itself is pluggable — the
// non-secure baseline and Temporal Partitioning live in internal/sched, the
// Fixed Service family in internal/core.
package mem

import (
	"fmt"
	"math"
	"slices"

	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/fsmerr"
	"fsmem/internal/obs"
	"fsmem/internal/prefetch"
	"fsmem/internal/stats"
)

// Request is one memory transaction from arrival at the controller to data
// delivery.
type Request struct {
	Domain   int
	Write    bool
	slot     uint16 // its slot in the class's bank view while queued
	seq      uint32 // enqueue order (see Older)
	Addr     dram.Address
	Arrive   int64 // bus cycle the request entered the controller
	FirstCmd int64 // bus cycle of its first DRAM command (-1 until issued)
	DataEnd  int64 // bus cycle its data burst completes (-1 until known)

	Dummy    bool // injected by FS shaping, carries no data
	Prefetch bool // injected into an FS dummy slot (core.FS.selectRequest)
	Acted    bool // an ACT was issued for this request (false on a row hit)

	// prev and next link the request's bank list in the bank view, by slot
	// (noSlot at either end). They and slot and seq sit in padding, so a
	// request stays 96 bytes.
	prev, next uint16

	done func() // completion callback to the core (nil for writes/dummies)
}

// Scheduler is a memory scheduling policy. Tick is called once per DRAM bus
// cycle and may issue at most one command on the channel's command bus
// (Issue). NextEvent bounds the scheduler's next state change for the
// fast-forward kernel: the earliest future bus cycle at which its Tick
// could do anything (issue a command, mutate queues, emit a trace event).
// Returning the current cycle is always safe; returning a later cycle
// asserts every Tick before it is a no-op, so Step may skip those ticks.
type Scheduler interface {
	Name() string
	Tick(c *Controller)
	NextEvent(c *Controller) int64
}

// QueueObserver is implemented by schedulers that track the queues
// incrementally: the controller calls Enqueued right after r enters a read
// queue or write buffer (a prefetch-buffer hit never enters one). Gen
// counts every enqueue, so a scheduler can tell whether it saw them all.
type QueueObserver interface {
	Enqueued(c *Controller, r *Request)
}

type completion struct {
	cycle int64
	req   *Request
}

// completionHeap is a hand-rolled binary min-heap on cycle. container/heap
// would box every completion through interface{} on Push and Pop — an
// allocation per scheduled transaction in the controller's hot loop.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].cycle <= s[i].cycle {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = completion{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].cycle < s[least].cycle {
			least = l
		}
		if r < n && s[r].cycle < s[least].cycle {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Config sizes the controller.
type Config struct {
	Domains  int
	ReadCap  int // per-domain read transaction queue capacity
	WriteCap int // per-domain write buffer capacity
	// PrefetchBufCap, when > 0 with prefetching enabled, is the per-domain
	// prefetch buffer capacity (completed prefetches waiting to be hit).
	PrefetchBufCap int
}

// DefaultConfig returns the controller sizing used in the evaluation.
func DefaultConfig(domains int) Config {
	return Config{Domains: domains, ReadCap: 32, WriteCap: 32, PrefetchBufCap: 64}
}

// Controller is the memory-controller shell for one channel.
type Controller struct {
	P    dram.Params
	Cfg  Config
	Chan *dram.Channel

	Cycle int64

	ReadQ  [][]*Request // per-domain demand reads, arrival order
	WriteQ [][]*Request // per-domain write-backs, arrival order

	// bankReads/bankWrites hold every queued request of their class in one
	// list per bank, oldest first; see BankHead.
	bankReads, bankWrites bankView

	Dom []stats.Domain
	// LatHist collects per-domain demand-read latency distributions.
	LatHist []*stats.Histogram

	// Obs is the optional command/event tracer (nil = off; every Tracer
	// method nil-checks, so instrumentation costs one branch when unset).
	Obs *obs.Tracer

	// Observability counters (plain fields, snapshotted by ObsMetrics):
	// enqueues the controller had to reject because a domain's queue was
	// full, and retirements by class.
	RejectedReads  obs.Counter
	RejectedWrites obs.Counter
	Retired        obs.Counter

	sched       Scheduler
	observer    QueueObserver // sched's enqueue hook; nil when it has none
	completions completionHeap

	// qgen counts enqueues and removals on the queues (see Gen), and seq
	// numbers the enqueues.
	qgen uint64
	seq  uint32

	// reads counts the demand reads delivered, summed over Dom[*].Reads.
	reads int64

	// free holds retired requests for NewRequest to reuse. finish returns a
	// request only after its completion callback has run, and nothing in
	// the simulator keeps a *Request past that point.
	free []*Request

	mon *fault.Monitor  // always-on runtime verifier (nil in bare tests)
	inj *fault.Injector // command-stream fault injector (nil when unfaulted)

	// Prefetch support (nil when disabled).
	Prefetchers []*prefetch.Sandbox
	pfBuf       []map[uint64]int64 // per-domain: line key -> fill cycle
}

// NewController builds a controller around a fresh channel.
func NewController(p dram.Params, cfg Config, sched Scheduler) *Controller {
	c := &Controller{
		P:    p,
		Cfg:  cfg,
		Chan: dram.NewChannel(p),
		Dom:  make([]stats.Domain, cfg.Domains),
	}
	c.SetScheduler(sched)
	c.LatHist = make([]*stats.Histogram, cfg.Domains)
	for d := range c.LatHist {
		c.LatHist[d] = stats.NewLatencyHistogram()
	}
	c.ReadQ = make([][]*Request, cfg.Domains)
	c.WriteQ = make([][]*Request, cfg.Domains)
	// Queues are sized to their caps up front, and removals delete in
	// place (slices.Delete), so an enqueue never reallocates.
	for d := range c.ReadQ {
		c.ReadQ[d] = make([]*Request, 0, cfg.ReadCap)
		c.WriteQ[d] = make([]*Request, 0, cfg.WriteCap)
	}
	c.bankReads = newBankView(p, cfg.Domains*cfg.ReadCap)
	c.bankWrites = newBankView(p, cfg.Domains*cfg.WriteCap)
	return c
}

// Scheduler returns the active scheduling policy.
func (c *Controller) Scheduler() Scheduler { return c.sched }

// SetScheduler installs the scheduling policy. A controller serves one
// policy for its whole run; tests call it again before the first tick to
// wrap the policy NewController installed.
func (c *Controller) SetScheduler(s Scheduler) {
	c.sched = s
	c.observer, _ = s.(QueueObserver)
}

// Gen counts changes to the state a scheduler decision reads: every
// enqueue and removal on the queues, plus the channel's own Gen
// (applied commands, derates). A bound a scheduler derived from failed
// probes holds for as long as Gen is unchanged.
func (c *Controller) Gen() uint64 { return c.qgen + c.Chan.Gen() }

// EnablePrefetch attaches one sandbox prefetcher per domain.
func (c *Controller) EnablePrefetch(mk func(domain int) *prefetch.Sandbox) {
	c.Prefetchers = make([]*prefetch.Sandbox, c.Cfg.Domains)
	c.pfBuf = make([]map[uint64]int64, c.Cfg.Domains)
	for d := 0; d < c.Cfg.Domains; d++ {
		c.Prefetchers[d] = mk(d)
		c.pfBuf[d] = make(map[uint64]int64)
	}
}

func lineKey(a dram.Address) uint64 {
	return uint64(a.Channel)<<48 | uint64(a.Rank)<<40 | uint64(a.Bank)<<32 |
		uint64(a.Row)<<12 | uint64(a.Col)
}

// NewRequest returns a request holding a copy of r, reusing a retired one
// when the controller has any. Schedulers that inject their own
// transactions (dummies, prefetches) allocate them here, so the requests
// recycle once they complete.
func (c *Controller) NewRequest(r Request) *Request {
	var p *Request
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = new(Request)
	}
	*p = r
	return p
}

// EnqueueRead submits a demand read; done runs when data is delivered.
// Returns false when the domain's read queue is full.
func (c *Controller) EnqueueRead(domain int, a dram.Address, done func()) bool {
	if c.Prefetchers != nil {
		c.Prefetchers[domain].Observe(a)
		if _, hit := c.pfBuf[domain][lineKey(a)]; hit {
			delete(c.pfBuf[domain], lineKey(a))
			c.Dom[domain].UsefulPrefetches++
			// Serviced from the prefetch buffer: near-immediate completion.
			c.completions.push(completion{cycle: c.Cycle + 1, req: c.NewRequest(Request{
				Domain: domain, Addr: a, Arrive: c.Cycle, done: done,
			})})
			return true
		}
	}
	if len(c.ReadQ[domain]) >= c.Cfg.ReadCap {
		c.RejectedReads.Inc()
		c.Obs.QueueFull(domain, c.Cycle, false)
		return false
	}
	c.Obs.Enqueue(domain, a, c.Cycle)
	r := c.NewRequest(Request{Domain: domain, Addr: a, Arrive: c.Cycle, FirstCmd: -1, DataEnd: -1, done: done})
	c.ReadQ[domain] = append(c.ReadQ[domain], r)
	c.enqueued(&c.bankReads, r)
	return true
}

// EnqueueWrite submits a write-back. Returns false when the write buffer is
// full.
func (c *Controller) EnqueueWrite(domain int, a dram.Address) bool {
	if len(c.WriteQ[domain]) >= c.Cfg.WriteCap {
		c.RejectedWrites.Inc()
		c.Obs.QueueFull(domain, c.Cycle, true)
		return false
	}
	r := c.NewRequest(Request{Domain: domain, Write: true, Addr: a, Arrive: c.Cycle, FirstCmd: -1, DataEnd: -1})
	c.WriteQ[domain] = append(c.WriteQ[domain], r)
	c.enqueued(&c.bankWrites, r)
	return true
}

// enqueued numbers a request just appended to its domain queue, files it
// in the class's bank view and tells the scheduler.
func (c *Controller) enqueued(v *bankView, r *Request) {
	c.seq++
	r.seq = c.seq
	v.insert(c.bankOf(r), r)
	c.qgen++
	if c.observer != nil {
		c.observer.Enqueued(c, r)
	}
}

// Older reports whether a was queued before b in the controller's age
// order: by arrival cycle, ties broken by lower domain, then by enqueue
// order. It is the order of a stable sort by arrival of the per-domain
// queues concatenated in domain order. The enqueue numbers wrap, which
// matters only for requests 2^31 enqueues apart, and those never tie on
// arrival.
func Older(a, b *Request) bool {
	if a.Arrive != b.Arrive {
		return a.Arrive < b.Arrive
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	return int32(a.seq-b.seq) < 0
}

// bankView holds one class's queued requests as one list per bank, oldest
// first. slots holds every queued request of the class, each at its
// Request.slot, and the lists link slots through Request.prev and next;
// head and tail hold each bank's first and last slot, or noSlot. It costs
// one pointer per queue entry of the class and two slot numbers per bank.
type bankView struct {
	slots      []*Request
	head, tail []uint16
	banks      int // banks per rank, to index a request's bank
}

// noSlot ends a bank list.
const noSlot = math.MaxUint16

func newBankView(p dram.Params, capacity int) bankView {
	if capacity >= noSlot {
		panic(fmt.Sprintf("mem: %d queue entries of one class exceed the bank view's %d slots", capacity, noSlot-1))
	}
	v := bankView{
		slots: make([]*Request, 0, capacity),
		head:  make([]uint16, 2*p.TotalBanks()),
		banks: p.BanksPerRank,
	}
	v.head, v.tail = v.head[:p.TotalBanks()], v.head[p.TotalBanks():]
	for k := range v.head {
		v.head[k], v.tail[k] = noSlot, noSlot
	}
	return v
}

// insert files r under bank k after every request older than it. Requests
// arrive at the current cycle, so the backward walk stops at the bank's
// tail unless a lower domain enqueues later in the same cycle.
func (v *bankView) insert(k int, r *Request) {
	s := uint16(len(v.slots))
	v.slots = append(v.slots, r)
	r.slot = s
	p := v.tail[k]
	for p != noSlot && Older(r, v.slots[p]) {
		p = v.slots[p].prev
	}
	r.prev = p
	if p == noSlot {
		r.next, v.head[k] = v.head[k], s
	} else {
		r.next, v.slots[p].next = v.slots[p].next, s
	}
	if r.next == noSlot {
		v.tail[k] = s
	} else {
		v.slots[r.next].prev = s
	}
}

// remove unlinks r from bank k, where it is known to be, and moves the
// last slot's request into r's slot.
func (v *bankView) remove(k int, r *Request) {
	v.link(k, r.prev, r.next)
	last := len(v.slots) - 1
	if m := v.slots[last]; m != r {
		v.slots[r.slot], m.slot = m, r.slot
		mk := m.Addr.Rank*v.banks + m.Addr.Bank
		v.link(mk, m.prev, m.slot)
		v.link(mk, m.slot, m.next)
	}
	v.slots[last] = nil
	v.slots = v.slots[:last]
}

// link makes slot next follow slot prev in bank k's list, either of them
// possibly noSlot.
func (v *bankView) link(k int, prev, next uint16) {
	if prev == noSlot {
		v.head[k] = next
	} else {
		v.slots[prev].next = next
	}
	if next == noSlot {
		v.tail[k] = prev
	} else {
		v.slots[next].prev = prev
	}
}

// bankOf indexes r's bank in the bank views: rank*BanksPerRank + bank.
func (c *Controller) bankOf(r *Request) int {
	return r.Addr.Rank*c.P.BanksPerRank + r.Addr.Bank
}

// BankHead returns the oldest queued read (or, with writes set, the oldest
// buffered write) to bank k (rank*BanksPerRank + bank), in the order of
// Older, or nil. BankNext walks on from it.
func (c *Controller) BankHead(writes bool, k int) *Request {
	v := &c.bankReads
	if writes {
		v = &c.bankWrites
	}
	if s := v.head[k]; s != noSlot {
		return v.slots[s]
	}
	return nil
}

// BankNext returns the request queued after r in r's bank and class, in
// the order of Older, or nil. r must still be queued.
func (c *Controller) BankNext(r *Request) *Request {
	v := &c.bankReads
	if r.Write {
		v = &c.bankWrites
	}
	if r.next != noSlot {
		return v.slots[r.next]
	}
	return nil
}

// NextPrefetch pops a high-confidence prefetch candidate for the domain, or
// ok=false if prefetching is disabled or nothing is queued.
func (c *Controller) NextPrefetch(domain int) (dram.Address, bool) {
	if c.Prefetchers == nil {
		return dram.Address{}, false
	}
	return c.Prefetchers[domain].NextCandidate()
}

// AttachMonitor installs the runtime verification monitor. Every command
// that reaches the bus afterwards is shadowed through it.
func (c *Controller) AttachMonitor(m *fault.Monitor) { c.mon = m }

// AttachInjector installs a command-stream fault injector between the
// scheduler and the channel.
func (c *Controller) AttachInjector(in *fault.Injector) { c.inj = in }

// ReportViolation forwards a scheduler-detected violation (a planned
// command the live channel refused) to the runtime monitor, if attached.
func (c *Controller) ReportViolation(err error) {
	if c.mon != nil {
		c.mon.SchedulerViolation(err)
	}
}

// Issue puts cmd on the bus at the current cycle if the channel accepts
// it there, reporting whether it did; a suppressed command's timing
// footprint is modeled but its DRAM operation elided (FS energy
// optimizations). It is the one way a scheduler issues. A refused command
// changes nothing, and readyAt is the channel's ReadyAt bound, before
// which the same command is refused again unless Gen changes
// (dram.NeverReady when only a state change can help). With a fault
// injector, the accepted command is the scheduler's intent: the injector
// may drop or delay it, which the scheduler cannot see (issued is still
// true), or duplicate it.
func (c *Controller) Issue(cmd dram.Command, suppressed bool) (issued bool, readyAt int64) {
	// Without an injector the channel checks and applies cmd in one pass;
	// with one, cmd is only checked until the injector has decided.
	var at int64
	if c.inj == nil {
		at = c.Chan.TryIssue(cmd, c.Cycle, suppressed)
	} else {
		at = c.Chan.ReadyAt(cmd, c.Cycle)
	}
	if at > c.Cycle {
		return false, at
	}
	if c.mon != nil {
		c.mon.Intended(cmd, c.Cycle)
	}
	if c.inj != nil {
		switch d, replay := c.inj.Decide(cmd, c.Cycle); d {
		case fault.Drop:
			return true, c.Cycle
		case fault.Delay:
			c.inj.AddReplay(cmd, replay)
			return true, c.Cycle
		case fault.Duplicate:
			c.inj.AddReplay(cmd, replay)
		}
		// Deciding changes no channel state, so cmd is still legal.
		c.Chan.TryIssue(cmd, c.Cycle, suppressed)
	}
	c.applied(cmd, suppressed)
	return true, c.Cycle
}

// applied reports a command the channel just accepted to the tracer and
// the monitor.
func (c *Controller) applied(cmd dram.Command, suppressed bool) {
	c.Obs.Command(cmd, c.Cycle, suppressed)
	if c.mon != nil {
		c.mon.Applied(cmd, c.Cycle, suppressed)
	}
}

// CompleteAt schedules the request's completion bookkeeping (and its core
// callback for demand reads) at the given cycle, which is when the paper's
// release policy makes the data visible — normally the end of the data
// burst, or the end of the Q-cycle interval under reordered bank
// partitioning.
func (c *Controller) CompleteAt(req *Request, cycle int64) {
	c.completions.push(completion{cycle: cycle, req: req})
}

// RecordFirstCommand notes queue delay when a request's first command
// issues.
func (c *Controller) RecordFirstCommand(req *Request) {
	if req.FirstCmd >= 0 {
		return
	}
	req.FirstCmd = c.Cycle
	if !req.Dummy && !req.Prefetch {
		c.Dom[req.Domain].QueueDelaySum += c.Cycle - req.Arrive
		c.Obs.FirstCommand(req.Domain, req.Addr, c.Cycle, c.Cycle-req.Arrive, req.Write)
	}
}

// Tick advances the controller by one bus cycle: deliver due completions,
// pump any injected command replays onto the bus, then let the policy
// issue. It ticks the policy on every call, which makes it the reference
// for Step.
func (c *Controller) Tick() { c.tick(false) }

// Step is Tick for the event-driven loop: it skips the policy's Tick on a
// cycle before the policy's NextEvent, which the Scheduler contract makes
// a no-op. Completions and injector replays still run every cycle.
func (c *Controller) Step() { c.tick(true) }

func (c *Controller) tick(skip bool) {
	for len(c.completions) > 0 && c.completions[0].cycle <= c.Cycle {
		c.finish(c.completions.pop().req)
	}
	if c.inj != nil {
		for _, tc := range c.inj.Due(c.Cycle) {
			if at := c.Chan.TryIssue(tc.Cmd, c.Cycle, false); at > c.Cycle {
				// The model cannot apply an illegal command; the original's
				// disappearance is still caught by the schedule check.
				c.inj.Stats.ReplayRejects++
				continue
			}
			c.applied(tc.Cmd, false)
		}
	}
	if !skip || c.sched.NextEvent(c) <= c.Cycle {
		c.sched.Tick(c)
	}
	c.Cycle++
}

// NextEvent returns the earliest future bus cycle at which this
// controller's state can change without external input: the scheduler's own
// horizon, capped by the earliest pending completion and the earliest
// injector replay/extra.
func (c *Controller) NextEvent() int64 {
	h := c.sched.NextEvent(c)
	if len(c.completions) > 0 && c.completions[0].cycle < h {
		h = c.completions[0].cycle
	}
	if c.inj != nil {
		if d := c.inj.NextDue(); d < h {
			h = d
		}
	}
	return h
}

// AdvanceIdle jumps the controller clock by n bus cycles the caller has
// proven idle (no completion due, scheduler Tick a no-op, no injector
// activity). It is the fast-forward counterpart of n Tick calls.
func (c *Controller) AdvanceIdle(n int64) {
	c.Cycle += n
}

func (c *Controller) finish(req *Request) {
	c.Retired.Inc()
	d := &c.Dom[req.Domain]
	switch {
	case req.Dummy:
		d.Dummies++
		c.Obs.Complete(obs.EvDummy, req.Domain, req.Addr, c.Cycle, 0)
	case req.Prefetch:
		d.Prefetches++
		c.Obs.Complete(obs.EvPrefetchFill, req.Domain, req.Addr, c.Cycle, 0)
		if c.pfBuf != nil {
			buf := c.pfBuf[req.Domain]
			if len(buf) >= c.Cfg.PrefetchBufCap {
				// Evict the oldest fill.
				var oldKey uint64
				oldCycle := int64(1<<62 - 1)
				for k, v := range buf {
					if v < oldCycle {
						oldCycle, oldKey = v, k
					}
				}
				delete(buf, oldKey)
			}
			buf[lineKey(req.Addr)] = c.Cycle
		}
	case req.Write:
		d.Writes++
		c.Obs.Complete(obs.EvWriteDone, req.Domain, req.Addr, c.Cycle, 0)
	default:
		d.Reads++
		c.reads++
		d.ReadLatencySum += c.Cycle - req.Arrive
		d.ReadLatencyCount++
		c.LatHist[req.Domain].Observe(c.Cycle - req.Arrive)
		c.Obs.Complete(obs.EvDeliver, req.Domain, req.Addr, c.Cycle, c.Cycle-req.Arrive)
		if c.mon != nil {
			c.mon.ReadCompleted(req.Domain, c.Cycle)
		}
		if req.done != nil {
			req.done()
		}
	}
	*req = Request{}
	c.free = append(c.free, req)
}

// Remove deletes the request from its domain's read queue, or write queue
// for a write, returning a CodeQueue error if it is not there.
func (c *Controller) Remove(req *Request) error {
	qs, v, op := c.ReadQ, &c.bankReads, "mem.RemoveRead"
	if req.Write {
		qs, v, op = c.WriteQ, &c.bankWrites, "mem.RemoveWrite"
	}
	if req.Domain < 0 || req.Domain >= len(qs) {
		e := fsmerr.New(fsmerr.CodeQueue, op, "domain %d out of range [0,%d)", req.Domain, len(qs))
		e.Cycle = c.Cycle
		return e
	}
	q := qs[req.Domain]
	for i, r := range q {
		if r == req {
			qs[req.Domain] = slices.Delete(q, i, i+1)
			v.remove(c.bankOf(req), req)
			c.qgen++
			return nil
		}
	}
	e := fsmerr.New(fsmerr.CodeQueue, op, "request dom=%d addr=%s not in queue", req.Domain, req.Addr)
	e.Cycle = c.Cycle
	return e
}

// PendingReads returns the total queued demand reads across domains.
func (c *Controller) PendingReads() int { return len(c.bankReads.slots) }

// PendingWrites returns the total buffered writes across domains.
func (c *Controller) PendingWrites() int { return len(c.bankWrites.slots) }

// CompletedReads returns the demand reads the controller has delivered:
// the sum of Dom[*].Reads, kept as one count.
func (c *Controller) CompletedReads() int64 { return c.reads }

// ObsMetrics contributes the controller-shell counters to an obs.Registry
// snapshot (structural obs.MetricSource; see DESIGN.md §9).
func (c *Controller) ObsMetrics(emit func(name string, value float64)) {
	emit("read_queue_rejects", float64(c.RejectedReads.Value()))
	emit("write_buffer_rejects", float64(c.RejectedWrites.Value()))
	emit("retired", float64(c.Retired.Value()))
	emit("pending_reads", float64(c.PendingReads()))
	emit("pending_writes", float64(c.PendingWrites()))
}
