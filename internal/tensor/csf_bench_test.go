package tensor_test

import (
	"testing"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

var csfSink []*tensor.CSF

// BenchmarkBuildCSFs times the per-mode CSF trees a CSF solve builds before
// its first iteration (cpals.BuildCSFs: three sorts of a copy of the
// entries, one per root mode), on als3-zipf's tensor.
func BenchmarkBuildCSFs(b *testing.B) {
	x := tensor.GenZipf(1, 2_000_000, 0.7, 40000, 30000, 20000)
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		csfSink = cpals.BuildCSFs(x)
		wall += time.Since(start)
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
}
