package main

import (
	"math"
	"testing"
)

func TestPercentileMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) and statistics.median in Python.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
		{[]float64{0.2, 0.1, 0.4, 0.3, 0.9, 0.5, 0.7}, 0.2, 0.4, 0.7},
	}
	for _, c := range cases {
		got := []float64{percentile(c.xs, 0.25), median(c.xs), percentile(c.xs, 0.75)}
		want := []float64{c.q1, c.med, c.q3}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%v: quartiles %v, want %v", c.xs, got, want)
				break
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	if got := percentile([]float64{3, 1, 2}, 1); got != 3 {
		t.Errorf("p100 = %v, want the maximum", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, ""}, {19, ""}, {20, "p50"}, {39, "p50"}, {40, "p75"}, {99, "p75"},
		{100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}, {10000, "p99.9"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		got := ""
		if ok {
			got = pctName(p)
		}
		if got != c.want {
			t.Errorf("n=%d: tail percentile %q, want %q", c.n, got, c.want)
		}
	}
}
