// Package prefetch implements the sandbox prefetcher (Pugsley et al., HPCA
// 2014) the paper uses to fill Fixed Service dummy slots with useful work:
// candidate stride offsets are evaluated in a Bloom-filter "sandbox"
// without issuing real prefetches; offsets that would have covered enough
// demand misses are promoted, and promoted offsets generate a small queue
// of high-confidence prefetch addresses.
package prefetch

import "fsmem/internal/dram"

const (
	bloomBits  = 2048
	evalPeriod = 256  // demand observations per sandbox evaluation
	scoreFrac  = 0.25 // promotion threshold: fraction of covered misses
	maxActive  = 4    // promoted offsets kept live
	maxQueue   = 4    // "a few-entry prefetch queue beside each transaction queue"
)

var candidateOffsets = []int{1, -1, 2, -2, 3, -3, 4, -4, 8, -8}

type bloom struct {
	bits [bloomBits / 64]uint64
}

func (b *bloom) hash(v uint64) (uint, uint) {
	h1 := v * 0x9e3779b97f4a7c15
	h2 := (v ^ 0x5851f42d4c957f2d) * 0xbf58476d1ce4e5b9
	return uint(h1 % bloomBits), uint(h2 % bloomBits)
}

func (b *bloom) add(v uint64) {
	i, j := b.hash(v)
	b.bits[i/64] |= 1 << (i % 64)
	b.bits[j/64] |= 1 << (j % 64)
}

func (b *bloom) has(v uint64) bool {
	i, j := b.hash(v)
	return b.bits[i/64]&(1<<(i%64)) != 0 && b.bits[j/64]&(1<<(j%64)) != 0
}

func (b *bloom) reset() { b.bits = [bloomBits / 64]uint64{} }

type activeOffset struct {
	offset int
	score  int
}

// Sandbox is one domain's prefetch engine.
type Sandbox struct {
	geom dram.Params

	sandbox bloom
	candIdx int // index into candidateOffsets under evaluation
	trials  int
	score   int
	active  []activeOffset
	queue   []dram.Address
}

// New builds a sandbox prefetcher for the given DRAM geometry.
func New(geom dram.Params) *Sandbox {
	return &Sandbox{geom: geom}
}

// lineIndex linearizes an address within its bank.
func (s *Sandbox) lineIndex(a dram.Address) uint64 {
	return (uint64(a.Rank)<<40 | uint64(a.Bank)<<32) + uint64(a.Row)*uint64(s.geom.ColsPerRow) + uint64(a.Col)
}

// offsetAddr applies a line offset within the same rank/bank, carrying
// across rows; ok=false when it walks off the bank.
func (s *Sandbox) offsetAddr(a dram.Address, off int) (dram.Address, bool) {
	lin := int64(a.Row)*int64(s.geom.ColsPerRow) + int64(a.Col) + int64(off)
	if lin < 0 || lin >= int64(s.geom.RowsPerBank)*int64(s.geom.ColsPerRow) {
		return a, false
	}
	a.Row = int(lin / int64(s.geom.ColsPerRow))
	a.Col = int(lin % int64(s.geom.ColsPerRow))
	return a, true
}

// Observe feeds one demand read. It scores the sandboxed candidate offset,
// advances the evaluation period, and generates prefetch candidates from
// promoted offsets.
func (s *Sandbox) Observe(a dram.Address) {
	// Score: would the sandboxed offset have prefetched this line?
	if s.sandbox.has(s.lineIndex(a)) {
		s.score++
	}
	s.trials++
	// Record the line this candidate would prefetch.
	if pa, ok := s.offsetAddr(a, candidateOffsets[s.candIdx]); ok {
		s.sandbox.add(s.lineIndex(pa))
	}
	if s.trials >= evalPeriod {
		s.finishPeriod()
	}

	// Generate prefetches from promoted offsets.
	for _, act := range s.active {
		if len(s.queue) >= maxQueue {
			break
		}
		if pa, ok := s.offsetAddr(a, act.offset); ok {
			s.push(pa)
		}
	}
}

func (s *Sandbox) finishPeriod() {
	off := candidateOffsets[s.candIdx]
	if float64(s.score) >= scoreFrac*float64(s.trials) {
		s.promote(off, s.score)
	} else {
		s.demote(off)
	}
	s.score, s.trials = 0, 0
	s.sandbox.reset()
	s.candIdx = (s.candIdx + 1) % len(candidateOffsets)
}

func (s *Sandbox) promote(off, score int) {
	for i := range s.active {
		if s.active[i].offset == off {
			s.active[i].score = score
			return
		}
	}
	if len(s.active) < maxActive {
		s.active = append(s.active, activeOffset{offset: off, score: score})
		return
	}
	// Replace the weakest if the newcomer beats it.
	weakest := 0
	for i := range s.active {
		if s.active[i].score < s.active[weakest].score {
			weakest = i
		}
	}
	if s.active[weakest].score < score {
		s.active[weakest] = activeOffset{offset: off, score: score}
	}
}

func (s *Sandbox) demote(off int) {
	for i := range s.active {
		if s.active[i].offset == off {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

func (s *Sandbox) push(a dram.Address) {
	for _, q := range s.queue {
		if q == a {
			return
		}
	}
	s.queue = append(s.queue, a)
}

// NextCandidate pops the next queued high-confidence prefetch address.
func (s *Sandbox) NextCandidate() (dram.Address, bool) {
	if len(s.queue) == 0 {
		return dram.Address{}, false
	}
	a := s.queue[0]
	s.queue = s.queue[1:]
	return a, true
}

// ActiveOffsets returns the currently promoted stride offsets.
func (s *Sandbox) ActiveOffsets() []int {
	out := make([]int, len(s.active))
	for i, a := range s.active {
		out[i] = a.offset
	}
	return out
}
