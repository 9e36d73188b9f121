package mem

import "fsmem/internal/dram"

// Fabric holds the per-channel controllers of a multi-channel memory
// system and is the interleaved router: it presents the same enqueue
// interface a single Controller does (cores cannot tell the difference)
// and stripes each transaction across the channels by the address's
// column bits, so consecutive lines of every domain land on consecutive
// channels. Every controller is sized for all domains and domain ids pass
// through unchanged. Colored channels are standalone machines whose cores
// issue straight to their own controller, so they never route through
// the fabric.
//
// The fabric holds no clock and no queues of its own: each controller
// keeps its own cycle counter and completion machinery, and completion
// callbacks flow back to cores through the closures the cores supplied,
// so no reverse routing is needed.
type Fabric struct {
	ctls []*Controller
}

// NewFabric wires per-channel controllers behind one request interface.
func NewFabric(ctls []*Controller) *Fabric { return &Fabric{ctls: ctls} }

// Channels returns the fabric width.
func (f *Fabric) Channels() int { return len(f.ctls) }

// Controllers returns the per-channel controllers in channel order.
func (f *Fabric) Controllers() []*Controller { return f.ctls }

// route returns the controller of the channel that serves address a.
func (f *Fabric) route(a dram.Address) *Controller { return f.ctls[a.Col%len(f.ctls)] }

// EnqueueRead routes a demand read to its channel; done runs when data is
// delivered. Returns false when the target queue is full.
func (f *Fabric) EnqueueRead(domain int, a dram.Address, done func()) bool {
	return f.route(a).EnqueueRead(domain, a, done)
}

// EnqueueWrite routes a write-back to its channel. Returns false when the
// target write buffer is full.
func (f *Fabric) EnqueueWrite(domain int, a dram.Address) bool {
	return f.route(a).EnqueueWrite(domain, a)
}
