package trace

import "fsmem/internal/dram"

// Ref is one post-LLC memory reference in a core's instruction stream:
// Gap non-memory instructions execute, then the reference itself (which is
// also one instruction).
type Ref struct {
	Gap   int  // non-memory instructions preceding this reference
	Write bool // store (write-back) vs load
	Addr  dram.Address
}

// Stream produces an unbounded sequence of references. Rate-mode workloads
// never terminate; the simulator stops on its own instruction/read budget.
type Stream interface {
	// Next returns the next reference.
	Next() Ref
}

// SliceStream replays a fixed reference sequence cyclically. It is useful
// for tests and for file-based traces.
type SliceStream struct {
	Refs []Ref
	pos  int
}

// Next returns the next reference, wrapping at the end.
func (s *SliceStream) Next() Ref {
	if len(s.Refs) == 0 {
		return Ref{Gap: 1 << 20}
	}
	r := s.Refs[s.pos]
	s.pos++
	if s.pos == len(s.Refs) {
		s.pos = 0
	}
	return r
}

// IdleStream never issues a memory reference: an endless run of non-memory
// instructions, for driving a core that must never touch memory.
type IdleStream struct{}

// Next returns a reference that is effectively never reached.
func (IdleStream) Next() Ref { return Ref{Gap: 1 << 30} }
