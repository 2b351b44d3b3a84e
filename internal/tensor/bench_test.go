package tensor

import (
	"testing"
	"time"
)

// The set-up microbenchmarks at the shapes of the repository's benchmark
// workloads: als3-zipf / dist2-zipf3 generate zipf3, als4-tall an order-4
// planted low-rank tensor, serve-stream the recsys tensor. `make
// bench-tensor` runs them once each.

var (
	zipf3Dims    = []int{40000, 30000, 20000}
	als4TallDims = []int{120000, 80000, 60000, 40000} // a 66-bit key
)

var sink *COO // keeps the generated tensors observable

// BenchmarkGenZipf times GenZipf end to end: the chunked draws, then
// DedupSum.
func BenchmarkGenZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GenZipf(1, 2_000_000, 0.7, zipf3Dims...)
	}
}

// BenchmarkDedupSum times DedupSum alone on raw draws, each iteration from
// a fresh copy: GenZipf's at als3-zipf's shape (2 M entries, a 46-bit key,
// the 16 B in-place records) and uniform ones at als4-tall's (300 k
// entries, a 66-bit key, the 24 B records and their scratch array).
func BenchmarkDedupSum(b *testing.B) {
	b.Run("zipf3", func(b *testing.B) { benchDedupSum(b, zipfEntries(1, 2_000_000, 0.7, zipf3Dims), zipf3Dims) })
	b.Run("als4-tall", func(b *testing.B) { benchDedupSum(b, uniformEntries(1, 300_000, als4TallDims), als4TallDims) })
}

func benchDedupSum(b *testing.B, raw []Entry, dims []int) {
	x := New(dims...)
	x.Entries = make([]Entry, len(raw))
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		x.Entries = x.Entries[:len(raw)]
		copy(x.Entries, raw)
		start := time.Now()
		x.DedupSum()
		wall += time.Since(start)
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N)/float64(len(raw)), "ns/nnz")
}

// BenchmarkGenLowRank times GenLowRank at als4-tall's shape: the serial
// draws, the planted values on every core, then DedupSum.
func BenchmarkGenLowRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GenLowRank(1, 300_000, 8, 0.1, als4TallDims...)
	}
}

// BenchmarkGenRecsys times GenRecsys at serve-stream's shape.
func BenchmarkGenRecsys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GenRecsys(1, 1_030_000, 60000, 40000, 24, 16, 0.05)
	}
}
