// Package cpu models an out-of-order core at the fidelity the evaluation
// needs: a reorder buffer that fills behind outstanding memory reads, a
// fixed fetch/retire width, and non-blocking writes. This is the USIMM
// processor model: IPC responds to memory latency and bandwidth, which is
// the coupling every figure in the paper measures.
package cpu

import (
	"math"
	"slices"

	"fsmem/internal/dram"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
)

// Memory is the post-LLC memory system as seen by one core. Enqueue
// operations return false under backpressure (full controller queues), in
// which case the core stalls and retries.
type Memory interface {
	EnqueueRead(domain int, a dram.Address, done func()) bool
	EnqueueWrite(domain int, a dram.Address) bool
}

type pendingRead struct {
	idx  int64 // instruction index occupying the ROB slot
	done bool
	cb   int32 // the completion callback the read holds (an index into Core.dones)
}

// Core is one simulated core running one security domain's stream.
type Core struct {
	ID      int
	Width   int // fetch/retire width per CPU cycle
	ROBSize int

	stream trace.Stream
	mem    Memory
	stats  *stats.Domain

	// Sync, when set, runs at every read completion before the read is
	// marked done. A simulator that lets the core fall behind its clock
	// uses it to apply the cycles the core owes first: they ran while the
	// read was still outstanding.
	Sync func()

	fetchIdx  int64 // next instruction index to fetch
	retireIdx int64 // next instruction index to retire
	// reads lists outstanding reads in instruction order. Entries are
	// deleted in place (slices.Delete), never resliced off the front, so
	// issueRef's append reuses the array instead of reallocating.
	reads []pendingRead
	// dones holds the core's completion callbacks and free those no read
	// in flight holds. A read takes a free one, the pool doubles only when
	// every existing one is in flight, and a callback frees itself when it
	// fires. So a core builds fewer than twice its peak reads in flight,
	// and a read costs no allocation.
	dones []func()
	free  []int32

	ref     trace.Ref
	refAt   int64 // instruction index of the next memory reference
	haveRef bool
}

// NewCore builds a core with the paper's parameters (64-entry ROB, 4-wide).
func NewCore(id int, stream trace.Stream, mem Memory, st *stats.Domain) *Core {
	c := &Core{
		ID:      id,
		Width:   4,
		ROBSize: 64,
		stream:  stream,
		mem:     mem,
		stats:   st,
	}
	c.loadNextRef()
	return c
}

func (c *Core) loadNextRef() {
	c.ref = c.stream.Next()
	c.refAt = c.fetchIdx + int64(c.ref.Gap)
	c.haveRef = true
}

// Retired returns the number of retired instructions.
func (c *Core) Retired() int64 { return c.retireIdx }

// Cycle advances the core by one CPU cycle.
func (c *Core) Cycle() {
	c.stats.CPUCycles++

	// Retire stage: up to Width instructions, blocking at the oldest
	// outstanding read.
	retired := 0
	for retired < c.Width && c.retireIdx < c.fetchIdx {
		if len(c.reads) > 0 && c.reads[0].idx == c.retireIdx {
			if !c.reads[0].done {
				break
			}
			c.reads = slices.Delete(c.reads, 0, 1)
		}
		c.retireIdx++
		c.stats.Instructions++
		retired++
	}

	// Fetch stage: up to Width instructions, bounded by ROB occupancy.
	fetched := 0
	for fetched < c.Width && c.fetchIdx-c.retireIdx < int64(c.ROBSize) {
		if c.haveRef && c.fetchIdx == c.refAt {
			if !c.issueRef() {
				return // backpressure: retry next cycle
			}
			c.fetchIdx++
			fetched++
			c.loadNextRef()
			continue
		}
		c.fetchIdx++
		fetched++
	}
}

// issueRef submits the current memory reference; false means backpressure.
func (c *Core) issueRef() bool {
	if c.ref.Write {
		// Writes drain through the write buffer and never block retirement;
		// a full write queue stalls fetch only.
		return c.mem.EnqueueWrite(c.ID, c.ref.Addr)
	}
	k := c.completion()
	pos := len(c.reads)
	c.reads = append(c.reads, pendingRead{idx: c.fetchIdx, cb: k})
	if !c.mem.EnqueueRead(c.ID, c.ref.Addr, c.dones[k]) {
		c.reads = c.reads[:pos]
		return false
	}
	c.free = c.free[:len(c.free)-1]
	return true
}

// completion returns a free completion callback, the last one freed. When
// none is free it first builds as many callbacks as the core has (one at
// first), as a slice doubles: a core builds fewer than twice its peak
// reads in flight, and a new peak of reads in flight allocates only when
// it passes a power of two. The caller takes the callback off the free
// list once its read is accepted.
func (c *Core) completion() int32 {
	if len(c.free) == 0 {
		for range max(len(c.dones), 1) {
			c.free = append(c.free, c.newCompletion())
		}
	}
	return c.free[len(c.free)-1]
}

// newCompletion builds callback number len(c.dones): it marks its read
// done and frees itself.
func (c *Core) newCompletion() int32 {
	k := int32(len(c.dones))
	c.dones = append(c.dones, func() {
		if c.Sync != nil {
			c.Sync()
		}
		// A freed callback may be reissued while its previous read, done
		// but not yet retired, is still listed: mark the one not done.
		for i := range c.reads {
			if r := &c.reads[i]; r.cb == k && !r.done {
				r.done = true
				break
			}
		}
		c.free = append(c.free, k)
	})
	return k
}

// OutstandingReads returns the number of reads in flight (ROB pressure).
func (c *Core) OutstandingReads() int {
	n := 0
	for _, r := range c.reads {
		if !r.done {
			n++
		}
	}
	return n
}

// Forever is the NextInteraction result of a core that cannot reach its
// next memory reference without an external read completion: retirement is
// blocked on an outstanding read and the ROB leaves no room to fetch up to
// the reference.
const Forever = int64(math.MaxInt64)

// blockIdx returns the instruction index retirement will block at — the
// oldest outstanding (not yet completed) read — or -1 when no read blocks.
// Entries are idx-ordered and completed heads pop as retirement passes, so
// a scan for the first undone entry suffices.
func (c *Core) blockIdx() int64 {
	for i := range c.reads {
		if !c.reads[i].done {
			return c.reads[i].idx
		}
	}
	return -1
}

// NextInteraction returns how many CPU cycles from now until this core next
// attempts a memory enqueue (1 = the very next Cycle call may touch the
// memory system, so nothing can be skipped), assuming no outstanding read
// completes in the meantime. Returns Forever when the core is stalled until
// an external completion. The enqueue attempt is the only point a core
// observes or mutates anything outside its own registers — including the
// side effects of a rejected enqueue (reject counters, queue-full trace
// events) — so every cycle before it is provably free of interaction.
func (c *Core) NextInteraction() int64 {
	if !c.haveRef {
		return Forever
	}
	_, _, used, interact := ffScan(c.retireIdx, c.fetchIdx, c.blockIdx(), c.refAt,
		int64(c.Width), int64(c.ROBSize), Forever)
	if !interact {
		return Forever
	}
	return used + 1
}

// Skip advances the core by n CPU cycles in one arithmetic batch,
// reproducing exactly what n Cycle calls would have done. The caller must
// guarantee the span is interaction-free (n < NextInteraction()) and that
// no outstanding read completes inside it; the simulator's event horizon
// provides both.
func (c *Core) Skip(n int64) {
	if n <= 0 {
		return
	}
	c.stats.CPUCycles += n
	if !c.haveRef {
		return
	}
	nr, nf, _, _ := ffScan(c.retireIdx, c.fetchIdx, c.blockIdx(), c.refAt,
		int64(c.Width), int64(c.ROBSize), n)
	c.stats.Instructions += nr - c.retireIdx
	c.retireIdx, c.fetchIdx = nr, nf
	pop := 0
	for pop < len(c.reads) && c.reads[pop].idx < nr {
		pop++ // retirement passed it, so it was complete: Cycle would have popped it
	}
	c.reads = slices.Delete(c.reads, 0, pop)
}

// ffScan runs the retire/fetch arithmetic of up to n interaction-free CPU
// cycles from retire index r and fetch index f, with retirement blocked at
// index b (-1 = unblocked) and the next memory reference at index t. It
// mirrors Cycle exactly: per cycle, retirement advances to
// min(r+w, f, b) and fetch to min(f+w, retired+rob, t), and a cycle
// interacts when the fetch loop reaches t with ROB room (t-f < w and
// t-retired < rob). It stops just before the first interacting cycle
// (interact=true), when no further cycle can change state (stall,
// interact=false), or when the budget runs out. Runs of full-speed cycles
// (both stages advancing w) are applied closed-form, so the scan costs
// O(phase changes), not O(cycles).
func ffScan(r, f, b, t, w, rob, n int64) (nr, nf, used int64, interact bool) {
	for used < n {
		ret := r + w
		if ret > f {
			ret = f
		}
		if b >= 0 && ret > b {
			ret = b
		}
		if t-f < w && t-ret < rob {
			return r, f, used, true
		}
		fet := f + w
		if lim := ret + rob; fet > lim {
			fet = lim
		}
		if fet > t {
			fet = t
		}
		if fet < f {
			fet = f // ROB already full: the fetch loop never runs
		}
		if ret == r && fet == f {
			return r, f, used, false
		}
		if ret == r+w && fet == f+w {
			// Full speed persists while the fetch front stays w short of the
			// reference and retirement stays clear of the blocking read; the
			// ROB margin f-r is invariant under equal advance.
			m := (t - f) / w
			if b >= 0 {
				if mb := (b - r) / w; mb < m {
					m = mb
				}
			}
			if rem := n - used; m > rem {
				m = rem
			}
			if m > 1 {
				r += w * m
				f += w * m
				used += m
				continue
			}
		}
		r, f = ret, fet
		used++
	}
	return r, f, used, false
}
