// Package obs is the simulator's observability layer: a zero-allocation
// metrics registry, a bounded ring-buffer command/event tracer, and the
// profiling hooks the command-line tools expose.
//
// Design constraints (see DESIGN.md §9):
//
//   - The hot path never allocates and never locks. Metric primitives are
//     plain struct fields incremented in place; the tracer writes fixed-size
//     Event values into a preallocated ring. Registration and snapshotting
//     happen outside the cycle loop.
//   - Everything costs nothing when disabled: every Tracer method nil-checks
//     its receiver first, so an unobserved run pays one predictable branch
//     per instrumentation point (pinned by BenchmarkSimulatorThroughput,
//     which runs with every hook nil).
//   - Output is deterministic: snapshots are sorted by name, traces replay
//     in recording order, and the exporters emit hand-formatted lines so a
//     run's trace is byte-identical across worker counts and repeat runs.
package obs

import (
	"fmt"
	"sort"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; incrementing is a plain field add, safe for single-goroutine hot
// paths (one simulation runs on one goroutine by construction).
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Metric is one named value in a snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Snapshot is an end-of-run reading of every registered metric, sorted by
// name.
type Snapshot []Metric

// Get returns the metric by name.
func (s Snapshot) Get(name string) (float64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	return 0, false
}

// Format renders the snapshot as aligned "name value" lines.
func (s Snapshot) Format() string {
	w := 0
	for _, m := range s {
		if len(m.Name) > w {
			w = len(m.Name)
		}
	}
	out := make([]byte, 0, len(s)*(w+16))
	for _, m := range s {
		out = append(out, fmt.Sprintf("%-*s %g\n", w, m.Name, m.Value)...)
	}
	return string(out)
}

// MetricSource is anything that can contribute named values to a snapshot.
// Subsystems that already keep plain-struct counters (dram channel counters,
// per-domain statistics, scheduler internals) implement this instead of
// migrating their fields into registry-owned primitives: the hot path stays
// exactly as cheap, and the registry reads the fields once at end of run.
type MetricSource interface {
	ObsMetrics(emit func(name string, value float64))
}

// SourceFunc adapts a function to MetricSource.
type SourceFunc func(emit func(name string, value float64))

// ObsMetrics implements MetricSource.
func (f SourceFunc) ObsMetrics(emit func(name string, value float64)) { f(emit) }

type sourceEntry struct {
	prefix string
	src    MetricSource
}

// Registry collects metric sources for an end-of-run snapshot. It is not
// safe for concurrent use; one registry belongs to one simulation run (the
// parallel engine gives every shard its own).
//
// A nil *Registry is valid everywhere: Source does nothing and Snapshot
// returns nil, so code paths can register unconditionally.
type Registry struct {
	sources []sourceEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Source registers a metric source; every name it emits is prefixed with
// "prefix." (unless prefix is empty).
func (r *Registry) Source(prefix string, src MetricSource) {
	if r == nil || src == nil {
		return
	}
	r.sources = append(r.sources, sourceEntry{prefix, src})
}

// Snapshot reads every registered source into a sorted Snapshot. Call it
// after the run; it is the only allocating operation.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	out := make(Snapshot, 0, 4*len(r.sources))
	for _, s := range r.sources {
		prefix := s.prefix
		s.src.ObsMetrics(func(name string, v float64) {
			if prefix != "" {
				name = prefix + "." + name
			}
			out = append(out, Metric{name, v})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
