package sim

import (
	"testing"

	"fsmem/internal/workload"
)

// benchSteps times stepBatch System.Step calls on milc×8 under scheduler k.
// Step never jumps the clock, so every bus cycle delivers completions. The
// dense loop ticks the scheduler and runs every core on every cycle; the
// default loop skips scheduler ticks before the scheduler's NextEvent and
// runs each core only on its interacting cycles.
func benchSteps(b *testing.B, k SchedulerKind, dense bool) {
	const stepBatch = 200_000
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(mix, k)
	cfg.DenseLoop = dense
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed batch first, so a -benchtime=1x run times the steady
	// state (full queues, ROBs blocked on reads) rather than the cold start.
	for i := 0; i < stepBatch; i++ {
		s.Step()
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < stepBatch; i++ {
			s.Step()
		}
	}
}

// BenchmarkStepFSRPMilc8 times Step with event-driven cores. FS's Tick
// does work only at its planning boundaries and planned commands, so
// skipping its other ticks saves little and the pair isolates core
// stepping.
func BenchmarkStepFSRPMilc8(b *testing.B) { benchSteps(b, FSRankPart, false) }

// BenchmarkStepFSRPMilc8Dense times the dense reference loop on the same
// input; CI gates the event-driven step at no more than 0.75× its time.
func BenchmarkStepFSRPMilc8Dense(b *testing.B) { benchSteps(b, FSRankPart, true) }

// BenchmarkStepBaselineMilc8 times Step under the Baseline, which skips
// the ticks before its wake.
func BenchmarkStepBaselineMilc8(b *testing.B) { benchSteps(b, Baseline, false) }

// BenchmarkStepBaselineMilc8Dense times the dense reference loop on the
// same input; CI gates the Baseline step at no more than 0.80× its time.
func BenchmarkStepBaselineMilc8Dense(b *testing.B) { benchSteps(b, Baseline, true) }
