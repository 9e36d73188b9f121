// Package mem implements the memory-controller shell shared by every
// scheduling policy: per-security-domain transaction queues, write buffers,
// the completion machinery that returns read data to cores, and an optional
// per-domain prefetch engine. Scheduling policy itself is pluggable — the
// non-secure baseline and Temporal Partitioning live in internal/sched, the
// Fixed Service family in internal/core.
package mem

import (
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
	Addr     dram.Address
	Arrive   int64 // bus cycle the request entered the controller
	FirstCmd int64 // bus cycle of its first DRAM command (-1 until issued)
	DataEnd  int64 // bus cycle its data burst completes (-1 until known)

	Dummy    bool // injected by FS shaping, carries no data
	Prefetch bool // injected into an FS dummy slot or by the baseline
	Acted    bool // an ACT was issued for this request (false on a row hit)

	done func() // completion callback to the core (nil for writes/dummies)
}

// Scheduler is a memory scheduling policy. Tick is called once per DRAM bus
// cycle and may issue at most one command on the channel's command bus via
// the controller helpers.
type Scheduler interface {
	Name() string
	Tick(c *Controller)
}

// EventSource is implemented by schedulers that can bound their next state
// change for the fast-forward kernel: NextEvent returns the earliest future
// bus cycle at which the scheduler's Tick could do anything (issue a
// command, mutate queues, emit a trace event). Returning the current cycle
// is always safe; returning a later cycle asserts every Tick before it is a
// no-op, so Step may skip those ticks. Schedulers that do not implement it
// force dense stepping.
type EventSource interface {
	NextEvent(c *Controller) int64
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

	// ageReads/ageWrites hold every queued request of their class across
	// domains, ordered by Arrive then Domain (a stable sort of the
	// per-domain queues concatenated in domain order). They are kept
	// incrementally by the enqueue/pop/remove paths; see ByAge.
	ageReads, ageWrites []*Request

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
	events      EventSource // sched's horizon; nil when it has none
	completions completionHeap

	// qgen counts enqueues, pops and removals on the queues (see Gen).
	qgen uint64

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
	// Queues are sized to their caps up front, and pops and removes delete
	// in place (slices.Delete), so an enqueue never reallocates.
	for d := range c.ReadQ {
		c.ReadQ[d] = make([]*Request, 0, cfg.ReadCap)
		c.WriteQ[d] = make([]*Request, 0, cfg.WriteCap)
	}
	c.ageReads = make([]*Request, 0, cfg.Domains*cfg.ReadCap)
	c.ageWrites = make([]*Request, 0, cfg.Domains*cfg.WriteCap)
	return c
}

// Scheduler returns the active scheduling policy.
func (c *Controller) Scheduler() Scheduler { return c.sched }

// SetScheduler swaps the scheduling policy. The caller must have drained
// the controller first (see sim.System.Reconfigure): swapping with work in
// flight would hand the new policy requests whose commands are half
// issued.
func (c *Controller) SetScheduler(s Scheduler) {
	c.sched = s
	c.events, _ = s.(EventSource)
}

// Gen counts changes to the state a scheduler decision reads: every
// enqueue, pop and removal on the queues, plus the channel's own Gen
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
	c.ageReads = insertByAge(c.ageReads, r)
	c.qgen++
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
	c.ageWrites = insertByAge(c.ageWrites, r)
	c.qgen++
	return true
}

// insertByAge places r after every request that arrived before it, or at
// the same cycle from a domain at or below its own. Requests arrive at the
// current cycle, so the backward scan almost always stops at the tail.
func insertByAge(s []*Request, r *Request) []*Request {
	i := len(s)
	for i > 0 && (s[i-1].Arrive > r.Arrive || s[i-1].Arrive == r.Arrive && s[i-1].Domain > r.Domain) {
		i--
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = r
	return s
}

// deleteByAge removes r from an age view it is known to be in.
func deleteByAge(s []*Request, r *Request) []*Request {
	for i, x := range s {
		if x == r {
			return slices.Delete(s, i, i+1)
		}
	}
	return s
}

// ByAge returns every queued read (or, with writes set, every buffered
// write) across domains, oldest first: ordered by arrival cycle, ties
// broken by lower domain, then by enqueue order within a domain. The slice
// is the controller's own and is valid only until the queues next change.
func (c *Controller) ByAge(writes bool) []*Request {
	if writes {
		return c.ageWrites
	}
	return c.ageReads
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

// Monitor returns the attached runtime monitor, or nil.
func (c *Controller) Monitor() *fault.Monitor { return c.mon }

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

// Issue places a command on the channel at the current cycle.
func (c *Controller) Issue(cmd dram.Command) error {
	return c.issue(cmd, false)
}

// IssueSuppressed places a command whose timing footprint is modeled but
// whose DRAM operation is elided (FS energy optimizations).
func (c *Controller) IssueSuppressed(cmd dram.Command) error {
	return c.issue(cmd, true)
}

func (c *Controller) issue(cmd dram.Command, suppressed bool) error {
	if c.inj != nil {
		// FR-FCFS-style schedulers probe with Issue and treat an error as
		// back-off, so only a command that would legally issue counts as
		// scheduler intent or is eligible for perturbation.
		if err := c.Chan.CanIssue(cmd, c.Cycle); err != nil {
			return err
		}
		return c.inject(cmd, suppressed)
	}
	if err := c.Chan.IssueEx(cmd, c.Cycle, suppressed); err != nil {
		return err
	}
	c.applied(cmd, suppressed)
	return nil
}

// applied reports a command the channel just accepted without an injector
// in the way: the scheduler intended it and it reached the bus.
func (c *Controller) applied(cmd dram.Command, suppressed bool) {
	c.Obs.Command(cmd, c.Cycle, suppressed)
	if c.mon != nil {
		c.mon.Intended(cmd, c.Cycle)
		c.mon.Applied(cmd, c.Cycle, suppressed)
	}
}

// inject hands a legal command to the fault injector, which may drop,
// delay or duplicate it, and applies it unless the injector held it back.
func (c *Controller) inject(cmd dram.Command, suppressed bool) error {
	if c.mon != nil {
		c.mon.Intended(cmd, c.Cycle)
	}
	switch d, replay := c.inj.Decide(cmd, c.Cycle); d {
	case fault.Drop:
		return nil // the scheduler believes it issued
	case fault.Delay:
		c.inj.AddReplay(cmd, replay)
		return nil
	case fault.Duplicate:
		c.inj.AddReplay(cmd, replay)
	}
	if err := c.Chan.IssueEx(cmd, c.Cycle, suppressed); err != nil {
		return err
	}
	c.Obs.Command(cmd, c.Cycle, suppressed)
	if c.mon != nil {
		c.mon.Applied(cmd, c.Cycle, suppressed)
	}
	return nil
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
// cycle before the policy's NextEvent, which the EventSource contract
// makes a no-op. Completions and injector replays still run every cycle.
func (c *Controller) Step() { c.tick(true) }

func (c *Controller) tick(skip bool) {
	for len(c.completions) > 0 && c.completions[0].cycle <= c.Cycle {
		c.finish(c.completions.pop().req)
	}
	if c.inj != nil {
		for _, tc := range c.inj.Due(c.Cycle) {
			if err := c.Chan.Issue(tc.Cmd, c.Cycle); err != nil {
				// The model cannot apply an illegal command; the original's
				// disappearance is still caught by the schedule check.
				c.inj.Stats.ReplayRejects++
				continue
			}
			c.Obs.Command(tc.Cmd, c.Cycle, false)
			if c.mon != nil {
				c.mon.Applied(tc.Cmd, c.Cycle, false)
			}
		}
	}
	if !skip || c.events == nil || c.events.NextEvent(c) <= c.Cycle {
		c.sched.Tick(c)
	}
	c.Cycle++
}

// NextEvent returns the earliest future bus cycle at which this
// controller's state can change without external input: the scheduler's own
// horizon, capped by the earliest pending completion and the earliest
// injector replay/extra. Returns the current cycle (no skip possible) when
// the scheduler does not implement EventSource.
func (c *Controller) NextEvent() int64 {
	if c.events == nil {
		return c.Cycle
	}
	h := c.events.NextEvent(c)
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

// TryIssue issues cmd if the channel would accept it right now, reporting
// whether it did. It is the allocation-free probe for FR-FCFS-style
// schedulers that treat timing rejections as back-off; without an injector
// it checks and applies cmd in one pass (dram.Channel.TryIssue). A failed
// probe also returns the channel's ReadyAt bound, before which the same
// probe fails again unless Gen changes (dram.NeverReady when only a state
// change can help), and rankWide when the rejecting constraint holds for
// the whole rank, so that the same kind of probe to any of the rank's
// banks fails until the bound too. Under an injector rankWide is always
// false.
func (c *Controller) TryIssue(cmd dram.Command) (issued bool, readyAt int64, rankWide bool) {
	if c.inj != nil {
		if at := c.Chan.ReadyAt(cmd, c.Cycle); at > c.Cycle {
			return false, at, false
		}
		return c.inject(cmd, false) == nil, c.Cycle, false
	}
	if at, wide := c.Chan.TryIssue(cmd, c.Cycle, false); at > c.Cycle {
		return false, at, wide
	}
	c.applied(cmd, false)
	return true, c.Cycle, false
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

// PopRead removes and returns the oldest read of the domain, or nil.
func (c *Controller) PopRead(domain int) *Request {
	q := c.ReadQ[domain]
	if len(q) == 0 {
		return nil
	}
	r := q[0]
	c.ReadQ[domain] = slices.Delete(q, 0, 1)
	c.ageReads = deleteByAge(c.ageReads, r)
	c.qgen++
	return r
}

// PopWrite removes and returns the oldest write of the domain, or nil.
func (c *Controller) PopWrite(domain int) *Request {
	q := c.WriteQ[domain]
	if len(q) == 0 {
		return nil
	}
	w := q[0]
	c.WriteQ[domain] = slices.Delete(q, 0, 1)
	c.ageWrites = deleteByAge(c.ageWrites, w)
	c.qgen++
	return w
}

// RemoveRead deletes the request from its domain's read queue, returning a
// CodeQueue error if it is not there.
func (c *Controller) RemoveRead(req *Request) error {
	if err := c.removeFrom(c.ReadQ, req, "mem.RemoveRead"); err != nil {
		return err
	}
	c.ageReads = deleteByAge(c.ageReads, req)
	return nil
}

// RemoveWrite deletes the request from its domain's write queue, returning
// a CodeQueue error if it is not there.
func (c *Controller) RemoveWrite(req *Request) error {
	if err := c.removeFrom(c.WriteQ, req, "mem.RemoveWrite"); err != nil {
		return err
	}
	c.ageWrites = deleteByAge(c.ageWrites, req)
	return nil
}

func (c *Controller) removeFrom(qs [][]*Request, req *Request, op string) error {
	if req.Domain < 0 || req.Domain >= len(qs) {
		e := fsmerr.New(fsmerr.CodeQueue, op, "domain %d out of range [0,%d)", req.Domain, len(qs))
		e.Cycle = c.Cycle
		return e
	}
	q := qs[req.Domain]
	for i, r := range q {
		if r == req {
			qs[req.Domain] = slices.Delete(q, i, i+1)
			c.qgen++
			return nil
		}
	}
	e := fsmerr.New(fsmerr.CodeQueue, op, "request dom=%d addr=%s not in queue", req.Domain, req.Addr)
	e.Cycle = c.Cycle
	return e
}

// PendingReads returns the total queued demand reads across domains.
func (c *Controller) PendingReads() int { return len(c.ageReads) }

// PendingWrites returns the total buffered writes across domains.
func (c *Controller) PendingWrites() int { return len(c.ageWrites) }

// Drained reports whether no work remains anywhere in the controller.
func (c *Controller) Drained() bool {
	return c.PendingReads() == 0 && c.PendingWrites() == 0 && len(c.completions) == 0
}

// ObsMetrics contributes the controller-shell counters to an obs.Registry
// snapshot (structural obs.MetricSource; see DESIGN.md §9).
func (c *Controller) ObsMetrics(emit func(name string, value float64)) {
	emit("read_queue_rejects", float64(c.RejectedReads.Value()))
	emit("write_buffer_rejects", float64(c.RejectedWrites.Value()))
	emit("retired", float64(c.Retired.Value()))
	emit("pending_reads", float64(c.PendingReads()))
	emit("pending_writes", float64(c.PendingWrites()))
}
