package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries, cheap enough to update on every completed read and precise
// enough for tail quantiles (the paper reports averages; tails are where
// secure schedulers differ most visibly).
type Histogram struct {
	bounds []int64 // bucket upper bounds, ascending; last bucket is open
	counts []int64
	total  int64
	sum    int64
	max    int64
}

// latencyBounds are the latency histograms' bucket bounds: 16..65536 bus
// cycles in powers of two. Every latency histogram shares the one slice,
// which nothing writes after this.
var latencyBounds = func() []int64 {
	var bounds []int64
	for b := int64(16); b <= 65536; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}()

// NewLatencyHistogram covers 1..65536 bus cycles in power-of-two buckets.
func NewLatencyHistogram() *Histogram {
	return &Histogram{bounds: latencyBounds, counts: make([]int64, len(latencyBounds)+1)}
}

// NewHistogram builds a histogram over the given ascending upper bounds
// plus an open top bucket.
func NewHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper bound of the bucket containing it (Max for the open top bucket).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Merge adds another histogram's samples (bounds must match).
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("stats: merging histograms with different bucketing")
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("stats: merging histograms with different bucketing")
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	return nil
}

// String renders a compact ASCII histogram.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50<=%d p95<=%d p99<=%d max=%d\n",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.max)
	peak := int64(1)
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		label := "   +inf"
		if i < len(h.bounds) {
			label = fmt.Sprintf("%7d", h.bounds[i])
		}
		bar := strings.Repeat("#", int(c*40/peak))
		fmt.Fprintf(&b, "<=%s %8d %s\n", label, c, bar)
	}
	return b.String()
}
