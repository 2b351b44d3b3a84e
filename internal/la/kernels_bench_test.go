package la

import (
	"fmt"
	"testing"
)

// The three tall-matrix steps that follow every MTTKRP in an ALS sweep —
// row-solve (VecMatInto per row), column normalize, gram refresh — at the
// two shapes the repository's benchmark runs (als4-tall's 120000x64 and
// als3-zipf's 40000x16), single-threaded. Run with `make bench-la`.

var benchShapes = []struct{ rows, cols int }{{120000, 64}, {40000, 16}}

func rowSolve(dst, m, pinv *Dense) {
	for i := 0; i < m.Rows; i++ {
		VecMatInto(dst.Row(i), m.Row(i), pinv)
	}
}

func forOperands(b *testing.B, kinds []string, fn func(b *testing.B, m *Dense)) {
	for _, s := range benchShapes {
		for _, kind := range kinds {
			b.Run(fmt.Sprintf("%dx%d/%s", s.rows, s.cols, kind), func(b *testing.B) {
				fn(b, kernelOperand(kind, s.rows, s.cols, 17))
			})
		}
	}
}

func BenchmarkRowSolve(b *testing.B) {
	forOperands(b, []string{"dense", "zero99"}, func(b *testing.B, m *Dense) {
		pinv := randTall(m.Cols, m.Cols, 5)
		dst := NewDense(m.Rows, m.Cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rowSolve(dst, m, pinv)
		}
	})
}

func BenchmarkGram(b *testing.B) {
	forOperands(b, []string{"dense", "zero99"}, func(b *testing.B, m *Dense) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			GramParallel(m, 1)
		}
	})
}

func BenchmarkNormalize(b *testing.B) {
	forOperands(b, []string{"dense", "zero99"}, func(b *testing.B, m *Dense) {
		work := m.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work.Data, m.Data)
			b.StartTimer()
			NormalizeColumnsParallel(work, 1)
		}
	})
}

// BenchmarkDenseStep runs normalize -> gram -> row-solve of the result, the
// order a solver runs them. The flush lives in normalize and pays off in
// the two steps after it, so only the sequence can show it: "tiny" must stay
// within 1.5x of "dense" (before the flush it was many times slower).
func BenchmarkDenseStep(b *testing.B) {
	forOperands(b, []string{"dense", "tiny"}, func(b *testing.B, m *Dense) {
		pinv := randTall(m.Cols, m.Cols, 5)
		work := m.Clone()
		dst := NewDense(m.Rows, m.Cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work.Data, m.Data)
			b.StartTimer()
			NormalizeColumnsParallel(work, 1)
			GramParallel(work, 1)
			rowSolve(dst, work, pinv)
		}
	})
}
