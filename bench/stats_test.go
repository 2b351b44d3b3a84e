package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: summarize must sort
	}
	return v
}

func TestSummarizeReportsHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n     int
		tailQ float64
	}{
		{9, 0},         // nothing has ten samples beyond it
		{39, 0},        // p75 would leave 9.75
		{40, 0.75},     // exactly ten beyond p75
		{100, 0.90},    // ten beyond p90, five beyond p95
		{200, 0.95},    // ten beyond p95
		{4500, 0.99},   // 45 beyond p99, 4.5 beyond p99.9
		{10000, 0.999}, // ten beyond p99.9
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailQ != c.tailQ {
			t.Errorf("n=%d: got N=%d tail=%v, want tail %v", c.n, s.N, s.TailQ, c.tailQ)
		}
		if want := float64(c.n+1) / 2; math.Abs(s.P50-want) > 1e-9 {
			t.Errorf("n=%d: median %v, want %v", c.n, s.P50, want)
		}
		if c.tailQ > 0 {
			if want := 1 + c.tailQ*float64(c.n-1); math.Abs(s.TailVal-want) > 1e-6 {
				t.Errorf("n=%d: p%v = %v, want %v", c.n, c.tailQ*100, s.TailVal, want)
			}
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median: %v", got)
	}
}

// The driver computes the spread with Python's statistics.quantiles(v, n=4);
// the expected values below are that function's output.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 14, 20, 9, 11, 12, 13}, 0.20833333333333334},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{5}, 0},
	}
	for _, c := range cases {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
