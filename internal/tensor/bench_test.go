package tensor

import (
	"testing"
	"time"
)

// The set-up microbenchmarks at the shapes of the repository's benchmark
// workloads: als3-zipf / dist2-zipf3 generate zipf3, serve-stream generates
// the recsys tensor. `make bench-tensor` runs them once each.

var zipf3Dims = []int{40000, 30000, 20000}

var sink *COO // keeps the generated tensors observable

// BenchmarkGenZipf times GenZipf end to end: the chunked draws, then
// DedupSum.
func BenchmarkGenZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GenZipf(1, 2_000_000, 0.7, zipf3Dims...)
	}
}

// BenchmarkDedupSum times DedupSum alone on GenZipf's raw draws (2 M
// entries, 46-bit keys); each iteration starts from a fresh copy.
func BenchmarkDedupSum(b *testing.B) {
	raw := zipfEntries(1, 2_000_000, 0.7, zipf3Dims)
	x := New(zipf3Dims...)
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

// BenchmarkGenRecsys times GenRecsys at serve-stream's shape.
func BenchmarkGenRecsys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GenRecsys(1, 1_030_000, 60000, 40000, 24, 16, 0.05)
	}
}
