package sim

import (
	"testing"

	"fsmem/internal/workload"
)

// benchSteps times stepBatch System.Step calls on FS_RP milc×8. Step never
// jumps the clock, so every bus cycle ticks the controller and the two
// loops differ only in how they step the cores: the dense loop runs every
// core every CPU cycle, event-driven cores run only their interacting
// cycles.
func benchSteps(b *testing.B, dense bool) {
	const stepBatch = 200_000
	mix, err := workload.Rate("milc", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(mix, FSRankPart)
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

// BenchmarkStepFSRPMilc8 times Step with event-driven cores.
func BenchmarkStepFSRPMilc8(b *testing.B) { benchSteps(b, false) }

// BenchmarkStepFSRPMilc8Dense times the dense reference loop on the same
// input; CI gates the event-driven step at no more than 0.75× its time.
func BenchmarkStepFSRPMilc8Dense(b *testing.B) { benchSteps(b, true) }
