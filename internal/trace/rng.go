// Package trace provides the deterministic random-number generator and the
// memory-reference stream abstraction that workload generators implement.
// Every source of randomness in the simulator flows from a seeded RNG so
// that experiments are reproducible byte-for-byte.
package trace

import "math"

// RNG is a splitmix64 pseudo-random generator: tiny state, excellent
// statistical quality for simulation purposes, and fully deterministic.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns a sample from a geometric distribution with the given
// mean (the number of failures before a success with p = 1/(mean+1)).
// A mean <= 0 always returns 0.
func (r *RNG) Geometric(mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / (mean + 1.0)
	// Closed-form inverse-transform sampling on the geometric CDF: the
	// smallest n with 1-(1-p)^(n+1) > u is floor(log(1-u)/log(1-p)). O(1)
	// regardless of the sampled value — idle workloads draw gaps in the
	// thousands, and accumulating the CDF term by term made stream
	// generation the simulator's hottest function.
	u := r.Float64()
	// Avoid log(0).
	if u >= 1.0 {
		u = 0.9999999999999999
	}
	n := int(math.Log1p(-u) / math.Log1p(-p))
	if n < 0 {
		n = 0
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}
