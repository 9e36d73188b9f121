// Package stats collects per-domain and per-channel statistics: retired
// instructions, cycles, memory traffic, latencies, and the derived metrics
// (IPC, weighted IPC, bandwidth utilization) that the paper's figures report.
package stats

import (
	"fmt"

	"fsmem/internal/dram"
)

// Domain accumulates one security domain's activity.
type Domain struct {
	Instructions int64 // retired instructions
	CPUCycles    int64 // CPU cycles elapsed while the domain ran

	Reads, Writes    int64 // demand transactions serviced by the channel
	Dummies          int64 // dummy operations injected on the domain's behalf
	Prefetches       int64 // prefetch operations injected into dummy slots
	UsefulPrefetches int64 // prefetches later hit by a demand access
	RowHits          int64 // demand accesses that hit an open row (baseline)
	RowHitBoosts     int64 // FS energy-opt-2 row-buffer boosts

	ReadLatencySum   int64 // bus cycles, arrival at MC -> data delivered
	ReadLatencyCount int64
	QueueDelaySum    int64 // bus cycles, arrival -> first command issued
}

// IPC returns retired instructions per CPU cycle.
func (d Domain) IPC() float64 {
	if d.CPUCycles == 0 {
		return 0
	}
	return float64(d.Instructions) / float64(d.CPUCycles)
}

// AvgReadLatency returns the mean read latency in bus cycles.
func (d Domain) AvgReadLatency() float64 {
	if d.ReadLatencyCount == 0 {
		return 0
	}
	return float64(d.ReadLatencySum) / float64(d.ReadLatencyCount)
}

// DummyFraction returns the fraction of all injected memory operations that
// were dummies.
func (d Domain) DummyFraction() float64 {
	total := d.Reads + d.Writes + d.Dummies + d.Prefetches
	if total == 0 {
		return 0
	}
	return float64(d.Dummies) / float64(total)
}

// Add accumulates another domain's counters into d. The multi-channel
// fabric uses it under interleaved routing, where one domain's traffic is
// striped across every channel: the CPU-side fields live in a
// system-owned accumulator and the memory-side fields in each channel's
// controller, so a plain field-wise sum merges them without double
// counting.
func (d *Domain) Add(o Domain) {
	d.Instructions += o.Instructions
	d.CPUCycles += o.CPUCycles
	d.Reads += o.Reads
	d.Writes += o.Writes
	d.Dummies += o.Dummies
	d.Prefetches += o.Prefetches
	d.UsefulPrefetches += o.UsefulPrefetches
	d.RowHits += o.RowHits
	d.RowHitBoosts += o.RowHitBoosts
	d.ReadLatencySum += o.ReadLatencySum
	d.ReadLatencyCount += o.ReadLatencyCount
	d.QueueDelaySum += o.QueueDelaySum
}

// ObsMetrics contributes the domain's accumulators and derived metrics to
// an observability snapshot (structurally satisfies obs.MetricSource).
func (d Domain) ObsMetrics(emit func(name string, value float64)) {
	emit("instructions", float64(d.Instructions))
	emit("cpu_cycles", float64(d.CPUCycles))
	emit("reads", float64(d.Reads))
	emit("writes", float64(d.Writes))
	emit("dummies", float64(d.Dummies))
	emit("prefetches", float64(d.Prefetches))
	emit("useful_prefetches", float64(d.UsefulPrefetches))
	emit("row_hits", float64(d.RowHits))
	emit("queue_delay_sum", float64(d.QueueDelaySum))
	emit("ipc", d.IPC())
	emit("avg_read_latency", d.AvgReadLatency())
}

// Run is the complete result of one simulation.
type Run struct {
	Scheduler string
	Workload  string
	BusCycles int64 // DRAM bus cycles simulated
	Domains   []Domain
	Channel   dram.Counters
	// Latency holds per-domain demand-read latency histograms (may be nil
	// for hand-built Runs).
	Latency []*Histogram
	// ChannelCycles holds each memory channel's own bus-cycle count in a
	// multi-channel run (nil for single-channel runs). Colored channels
	// stop independently, so BusCycles is the max — the wall-clock span —
	// while busy counters in Channel are summed across channels; ratios
	// like BusUtilization must therefore divide by the summed per-channel
	// cycles, not by the max.
	ChannelCycles []int64
}

// TotalReads sums demand reads across domains.
func (r Run) TotalReads() int64 {
	var n int64
	for _, d := range r.Domains {
		n += d.Reads
	}
	return n
}

// TotalInstructions sums retired instructions across domains.
func (r Run) TotalInstructions() int64 {
	var n int64
	for _, d := range r.Domains {
		n += d.Instructions
	}
	return n
}

// BusUtilization returns the fraction of bus cycles the data bus was busy.
// In a multi-channel run the busy counters are summed across channels
// while BusCycles is the max, so the denominator is the total of the
// per-channel cycle counts instead.
func (r Run) BusUtilization() float64 {
	cycles := r.BusCycles
	if len(r.ChannelCycles) > 0 {
		cycles = 0
		for _, c := range r.ChannelCycles {
			cycles += c
		}
	}
	if cycles == 0 {
		return 0
	}
	return float64(r.Channel.DataBusBusy) / float64(cycles)
}

// AvgReadLatency returns the mean demand-read latency across domains.
func (r Run) AvgReadLatency() float64 {
	var sum, n int64
	for _, d := range r.Domains {
		sum += d.ReadLatencySum
		n += d.ReadLatencyCount
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// DummyFraction returns the dummy fraction across all domains.
func (r Run) DummyFraction() float64 {
	var dummies, total int64
	for _, d := range r.Domains {
		dummies += d.Dummies
		total += d.Reads + d.Writes + d.Dummies + d.Prefetches
	}
	if total == 0 {
		return 0
	}
	return float64(dummies) / float64(total)
}

// WeightedIPC returns the sum of per-domain IPCs normalized against the
// same domain's IPC in the baseline run, the paper's throughput metric
// ("sum of weighted IPCs"; equals the domain count when run == baseline).
func WeightedIPC(run, baseline Run) (float64, error) {
	if len(run.Domains) != len(baseline.Domains) {
		return 0, fmt.Errorf("stats: domain count mismatch %d vs %d", len(run.Domains), len(baseline.Domains))
	}
	var sum float64
	for i := range run.Domains {
		b := baseline.Domains[i].IPC()
		if b == 0 {
			return 0, fmt.Errorf("stats: baseline IPC for domain %d is zero", i)
		}
		sum += run.Domains[i].IPC() / b
	}
	return sum, nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
