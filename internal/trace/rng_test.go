package trace

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(8)
	if NewRNG(7).Uint64() == c.Uint64() {
		t.Error("different seeds produced the same first value")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(3)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(4)
	for _, mean := range []float64{2, 10, 50} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Geometric(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.1 {
			t.Errorf("Geometric(%v) mean %v", mean, got)
		}
	}
	if r.Geometric(0) != 0 || r.Geometric(-3) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestSliceStreamWrapsAndEmptyIsIdle(t *testing.T) {
	s := &SliceStream{Refs: []Ref{{Gap: 1}, {Gap: 2}}}
	if s.Next().Gap != 1 || s.Next().Gap != 2 || s.Next().Gap != 1 {
		t.Error("SliceStream does not cycle")
	}
	empty := &SliceStream{}
	if empty.Next().Gap < 1<<19 {
		t.Error("empty SliceStream should behave as idle")
	}
	var idle IdleStream
	if idle.Next().Gap < 1<<29 {
		t.Error("IdleStream gap too small")
	}
}
