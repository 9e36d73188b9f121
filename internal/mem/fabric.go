package mem

import (
	chanaddr "fsmem/internal/addr"
	"fsmem/internal/dram"
)

// Fabric is the request-routing shim of a multi-channel memory system: it
// presents the same enqueue interface a single Controller does (cores
// cannot tell the difference), and forwards each transaction to one of N
// per-channel controllers according to the routing policy.
//
// Under colored routing each channel's controller is sized for its own
// contiguous block of domains, so the fabric also remaps the global
// security-domain id to the channel-local one — the controller then sees
// exactly the calls a standalone single-channel run would produce. Under
// interleaved routing every controller is sized for all domains and ids
// pass through unchanged.
//
// The fabric holds no clock and no queues of its own: each controller
// keeps its own cycle counter and completion machinery, and completion
// callbacks flow back to cores through the closures the cores supplied,
// so no reverse routing is needed.
type Fabric struct {
	ctls    []*Controller
	routing chanaddr.Routing
	domains int // global security-domain count
	per     int // domains per channel under colored routing
}

// NewFabric wires per-channel controllers behind one request interface.
// Under colored routing, domains must split evenly over the channels
// (validated by the caller).
func NewFabric(ctls []*Controller, routing chanaddr.Routing, domains int) *Fabric {
	f := &Fabric{ctls: ctls, routing: routing, domains: domains}
	if n := len(ctls); n > 0 {
		f.per = domains / n
	}
	return f
}

// Channels returns the fabric width.
func (f *Fabric) Channels() int { return len(f.ctls) }

// Controllers returns the per-channel controllers in channel order.
func (f *Fabric) Controllers() []*Controller { return f.ctls }

// ChannelOf computes the channel a request from the given global domain
// for the given address routes to.
func (f *Fabric) ChannelOf(domain int, a dram.Address) int {
	return chanaddr.RouteChannel(f.routing, domain, f.domains, len(f.ctls), a)
}

// LocalDomain translates a global domain id into the id the target
// channel's controller uses (identity under interleaved routing).
func (f *Fabric) LocalDomain(domain int) int {
	if f.routing == chanaddr.RouteColored && f.per > 0 {
		return domain % f.per
	}
	return domain
}

// EnqueueRead routes a demand read to its channel; done runs when data is
// delivered. Returns false when the target queue is full.
func (f *Fabric) EnqueueRead(domain int, a dram.Address, done func()) bool {
	c := f.ChannelOf(domain, a)
	return f.ctls[c].EnqueueRead(f.LocalDomain(domain), a, done)
}

// EnqueueWrite routes a write-back to its channel. Returns false when the
// target write buffer is full.
func (f *Fabric) EnqueueWrite(domain int, a dram.Address) bool {
	c := f.ChannelOf(domain, a)
	return f.ctls[c].EnqueueWrite(f.LocalDomain(domain), a)
}
