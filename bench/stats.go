package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// rule Python's statistics.quantiles uses by default: rank p·(n+1),
// clamped to [1, n] and linearly interpolated. p = 0.5 is the ordinary
// median; p = 0.25 and 0.75 are the quartiles that rule gives. NaN for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	lo := int(h) // 1-based rank below h
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLadder lists the percentiles a latency tail is reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile picks the highest percentile of the ladder that has at
// least ten of n samples beyond it, so a reported tail is never one or two
// outliers. ok is false when even the median has fewer than ten beyond.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// A tiny slack keeps p = 0.9 at n = 100 (exactly ten beyond) in.
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// pctName renders a percentile as a metric suffix: 0.95 -> "p95",
// 0.999 -> "p99.9".
func pctName(p float64) string {
	return fmt.Sprintf("p%.4g", p*100)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
