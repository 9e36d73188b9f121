package dram

// Derate is a set of additive per-rank timing margins, in bus cycles. The
// fault-injection harness uses derates to model marginal hardware: a rank
// whose effective tRCD or tWR is longer than the datasheet value the
// scheduler planned with. A derated channel enforces the lengthened
// constraints, so a schedule solved at nominal timings that no longer fits
// is rejected — which is exactly how the runtime monitor detects that a
// Fixed Service pipeline's conflict-freedom proof has been invalidated.
//
// The zero value derates nothing.
type Derate struct {
	TRCD int
	TRP  int
	TRAS int
	TRC  int
	TRTP int
	TWR  int
	TFAW int
	TRRD int
	TCCD int
	TWTR int
}

// SetDerate installs additive timing margins for one rank. Rank -1 applies
// the derate to every rank. Derating after commands have been issued only
// affects constraints checked from then on.
func (ch *Channel) SetDerate(rank int, d Derate) {
	ch.gen++
	if ch.derate == nil {
		ch.derate = make([]Derate, len(ch.ranks))
	}
	if rank < 0 {
		for r := range ch.derate {
			ch.derate[r] = d
		}
		return
	}
	if rank < len(ch.derate) {
		ch.derate[rank] = d
	}
}

// noDerate is the shared zero derate der hands out when none is installed.
var noDerate Derate

// der returns the rank's derate (zero when none installed) by pointer, so
// the per-probe timing checks read it in place instead of copying it.
func (ch *Channel) der(rank int) *Derate {
	if ch.derate == nil || rank < 0 || rank >= len(ch.derate) {
		return &noDerate
	}
	return &ch.derate[rank]
}

// SetDerate installs additive timing margins on the checker's shadow
// channel (rank -1 = all ranks), so a Checker can validate a command stream
// against derated hardware while the live channel runs nominal timings.
func (c *Checker) SetDerate(rank int, d Derate) { c.ch.SetDerate(rank, d) }
