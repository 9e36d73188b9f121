package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/fsmerr"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// TestColoredLanesFastForwardOnTheirOwn: each colored lane computes its
// own horizon, so a colored run's kernel counters are the sums of its
// channels' standalone runs. A lockstep fabric would jump only when every
// channel could, and skip far fewer cycles.
func TestColoredLanesFastForwardOnTheirOwn(t *testing.T) {
	const channels = 4
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
	cfg.TargetReads = 2000
	per := len(mix.Profiles) / channels
	var wantJumps, wantSkipped int64
	for c := 0; c < channels; c++ {
		sub := cfg
		sub.Mix.Profiles = mix.Profiles[c*per : (c+1)*per]
		sub.Seed = cfg.Seed + uint64(c)*channelSeedStride
		s, err := New(sub)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		jumps, skipped := s.FastForward()
		wantJumps += jumps
		wantSkipped += skipped
	}
	if wantSkipped == 0 {
		t.Fatal("the standalone channels never skipped a cycle: the comparison is vacuous")
	}

	cfg.Channels = channels
	cfg.Routing = addr.RouteColored
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if jumps, skipped := s.FastForward(); jumps != wantJumps || skipped != wantSkipped {
		t.Errorf("colored run took %d jumps skipping %d cycles, want the standalone sums %d and %d",
			jumps, skipped, wantJumps, wantSkipped)
	}
}

// laneStream wraps a domain's generator and calls hook once, when the
// domain draws its after-th reference.
type laneStream struct {
	trace.Stream
	after int
	hook  func()
}

func (s *laneStream) Next() trace.Ref {
	if s.after--; s.after == 0 {
		s.hook()
	}
	return s.Stream.Next()
}

// hookLane returns a stream factory for a colored run of cfg that feeds
// every domain cfg's first profile and calls hook when the first domain
// of the given channel draws its 200th reference. New calls the factory in
// channel order, per domains at a time.
func hookLane(cfg Config, per, channel int, hook func()) func(int, addr.Space, uint64) trace.Stream {
	calls := 0
	return func(d int, space addr.Space, seed uint64) trace.Stream {
		var s trace.Stream = workload.NewGenerator(cfg.Mix.Profiles[0], space, cfg.DRAM, seed)
		if calls == channel*per {
			s = &laneStream{Stream: s, after: 200, hook: hook}
		}
		calls++
		return s
	}
}

// lanePanic is the value the panicking lane raises.
type lanePanic struct{ channel int }

// TestLanePanicReachesCaller: a panic on any lane, the one RunContext
// runs on the caller's goroutine or another, is re-raised by RunContext on
// the caller's goroutine with its original value, where a recovering
// caller (a parallel.Map cell, the daemon's quarantine) catches it.
func TestLanePanicReachesCaller(t *testing.T) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, channel := range []int{0, 2} {
		t.Run(fmt.Sprintf("ch%d", channel), func(t *testing.T) {
			cfg := DefaultConfig(mix, FSRankPart)
			cfg.TargetReads = 2000
			cfg.Channels = 4
			cfg.Routing = addr.RouteColored
			cfg.StreamFactory = hookLane(cfg, 2, channel, func() { panic(lanePanic{channel}) })
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != (lanePanic{channel}) {
					t.Fatalf("recovered %#v, want the lane's own panic value", p)
				}
			}()
			s.Run()
			t.Fatal("RunContext returned although a lane panicked")
		})
	}
}

// TestSimulateContextCanceledMultiLane: canceling a colored run, before it
// starts or while its lanes run, yields CodeCanceled like a one-lane run.
func TestSimulateContextCanceledMultiLane(t *testing.T) {
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, midRun := range []bool{false, true} {
		name := "before"
		if midRun {
			name = "mid-run"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := DefaultConfig(mix, FSRankPart)
			cfg.TargetReads = 1_000_000 // far beyond what a canceled run may reach
			cfg.Channels = 4
			cfg.Routing = addr.RouteColored
			if midRun {
				cfg.StreamFactory = hookLane(cfg, 2, 1, cancel)
			} else {
				cancel()
			}
			_, err := SimulateContext(ctx, cfg)
			if fsmerr.CodeOf(err) != fsmerr.CodeCanceled {
				t.Fatalf("want CodeCanceled, got %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cause lost: %v", err)
			}
		})
	}
}
