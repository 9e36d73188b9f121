package sched

import (
	"math"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// wake is a scheduler's horizon between state changes. A tick that issues
// nothing records the minimum of the bounds it met: each failed probe's
// ReadyAt and any deadline the policy keeps itself. No tick before that
// cycle can issue while the controller's Gen stays the same, because the
// tick would make the same probes and each would fail again. Any enqueue,
// removal, applied command or derate changes Gen and expires the wake.
type wake struct {
	at  int64  // the recorded bound; at most the tick's own cycle after an issue
	gen uint64 // Controller.Gen when the bound was recorded
}

// start opens a tick with no bound yet.
func (w *wake) start() { w.at = math.MaxInt64 }

// fold lowers the tick's bound to at.
func (w *wake) fold(at int64) { w.at = min(w.at, at) }

// try issues cmd with Controller.Issue and folds a refused command's
// bound.
func (w *wake) try(c *mem.Controller, cmd dram.Command) bool {
	ok, at := c.Issue(cmd, false)
	if !ok {
		w.fold(at)
	}
	return ok
}

// finish closes a tick. A tick that issued (or believes it did: an injector
// may drop the command) records no bound, so the next cycle ticks again.
func (w *wake) finish(c *mem.Controller, issued bool) {
	if issued {
		w.at = c.Cycle
		return
	}
	w.gen = c.Gen()
}

// next is the scheduler's NextEvent: the recorded bound while it is valid,
// the current cycle otherwise.
func (w *wake) next(c *mem.Controller) int64 {
	if w.gen != c.Gen() {
		return c.Cycle
	}
	return max(w.at, c.Cycle)
}
