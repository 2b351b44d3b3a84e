package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

func mean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// tailLevels are the percentiles a latency summary may report, highest
// first, in thousandths so that "ten samples beyond" is integer arithmetic.
var tailLevels = []int{999, 990, 950, 900, 750}

// summary is a timing reported the way the metrics guide asks: the median,
// the highest percentile that still has at least ten samples beyond it, and
// the sample count.
type summary struct {
	N       int
	P50     float64
	TailQ   float64 // 0 when no level has ten samples beyond it
	TailVal float64
}

func summarize(vals []float64) summary {
	s := sortedCopy(vals)
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	for _, pm := range tailLevels {
		if len(s)*(1000-pm) >= 10*1000 {
			out.TailQ = float64(pm) / 1000
			out.TailVal = quantile(s, out.TailQ)
			break
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, computed as Python's statistics.quantiles(values, n=4)
// does (exclusive method), so it matches what the driver computes.
func spread(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}
