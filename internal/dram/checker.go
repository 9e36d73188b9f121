package dram

import "fmt"

// maxStoredViolations caps the errors a Checker keeps verbatim; the count
// keeps accumulating past the cap, so a long faulted run cannot grow the
// checker without bound.
const maxStoredViolations = 32

// Checker independently validates a stream of (command, cycle) pairs
// against the full timing model. It is deliberately unaware of any
// scheduler: the Fixed Service tests feed whole statically generated
// pipelines through a Checker to prove them conflict-free, which is the
// executable counterpart of the paper's Section 3 equations.
type Checker struct {
	ch         *Channel
	violations []error // the first maxStoredViolations violations
	count      int     // every violation, stored or not
	fed        int
}

// NewChecker builds a checker over a fresh, all-banks-precharged channel.
func NewChecker(p Params) *Checker {
	return &Checker{ch: NewChannel(p)}
}

// Feed validates and applies one command, returning the violation it
// caused or nil. Invalid commands are recorded as violations and not
// applied, so one bad command does not cascade.
func (c *Checker) Feed(cmd Command, cycle int64) error {
	c.fed++
	err := c.ch.Issue(cmd, cycle)
	if err == nil {
		return nil
	}
	err = fmt.Errorf("command %d: %w", c.fed, err)
	c.count++
	if len(c.violations) < maxStoredViolations {
		c.violations = append(c.violations, err)
	}
	return err
}

// Violations returns the first violations seen so far, at most 32; Ok
// still reports any past the cap.
func (c *Checker) Violations() []error { return c.violations }

// Commands returns the number of commands fed.
func (c *Checker) Commands() int { return c.fed }

// Counters exposes the underlying channel's activity counters.
func (c *Checker) Counters() Counters { return c.ch.Counters }

// Ok reports whether no violations have been recorded.
func (c *Checker) Ok() bool { return c.count == 0 }
