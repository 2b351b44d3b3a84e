package la

import (
	"math"

	"cstf/internal/par"
)

// Parallel counterparts of the tall-matrix kernels (gram, column norms,
// normalization). All reductions are blocked on par.BlockSize rows with
// partials merged in block order, so for a given matrix the result is
// bitwise identical for every worker count — workers only race for which
// block they compute, never for how the sum tree is shaped.

// GramParallel computes m' * m with up to `workers` goroutines. The
// result is bitwise reproducible across worker counts (including 1), but
// differs in rounding from the purely sequential Gram, which accumulates
// row-by-row without block partials.
func GramParallel(m *Dense, workers int) *Dense {
	g := NewDense(m.Cols, m.Cols)
	nb := par.NumBlocks(m.Rows)
	if nb == 0 {
		return g
	}
	if nb == 1 {
		GramAccumulate(g, m)
		return g
	}
	partials := make([]*Dense, nb)
	par.Run(workers, nb, func(b int) {
		lo, hi := par.Block(b, m.Rows)
		p := NewDense(m.Cols, m.Cols)
		GramAccumulate(p, &Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]})
		partials[b] = p
	})
	for _, p := range partials {
		for i, v := range p.Data {
			g.Data[i] += v
		}
	}
	return g
}

// ColumnNormsParallel returns the Euclidean norm of each column, computed
// as a blocked reduction over row blocks.
func ColumnNormsParallel(m *Dense, workers int) []float64 {
	sums := make([]float64, m.Cols)
	nb := par.NumBlocks(m.Rows)
	partials := make([][]float64, nb)
	par.Run(workers, nb, func(b int) {
		lo, hi := par.Block(b, m.Rows)
		p := make([]float64, m.Cols)
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, v := range row {
				p[j] += v * v
			}
		}
		partials[b] = p
	})
	for _, p := range partials {
		for j, v := range p {
			sums[j] += v
		}
	}
	for j := range sums {
		sums[j] = math.Sqrt(sums[j])
	}
	return sums
}

// NormalizeColumnsParallel divides each column by its norm (computed via
// ColumnNormsParallel) and returns the norms, with zero-norm columns
// reported as 1 and quotients below FlushBelow stored as +0 exactly like
// NormalizeColumns. The row scaling fans out over row blocks; it is
// elementwise, so any partitioning is exact.
func NormalizeColumnsParallel(m *Dense, workers int) []float64 {
	norms := ColumnNormsParallel(m, workers)
	for j, n := range norms {
		if n == 0 {
			norms[j] = 1
		}
	}
	par.Run(workers, par.NumBlocks(m.Rows), func(b int) {
		lo, hi := par.Block(b, m.Rows)
		m.scaleRows(lo, hi, norms)
	})
	return norms
}

// ScaleColumnsParallel multiplies column j of m by s[j] — lambda absorbed
// back into a normalized factor. Elementwise, so any partitioning is exact.
func ScaleColumnsParallel(m *Dense, s []float64, workers int) {
	par.ForBlocks(workers, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j := range row {
				row[j] *= s[j]
			}
		}
	})
}

// RowBlocksApply runs fn over the row blocks of an n-row matrix on the
// worker pool. fn must only touch rows in its [lo, hi) block; under that
// contract the result is independent of the worker count.
func RowBlocksApply(workers, n int, fn func(lo, hi int)) {
	par.ForBlocks(workers, n, fn)
}

// RowNormsParallel returns the Euclidean norm of each ROW of m — the
// per-item normalizers of cosine-similarity scoring over factor rows. The
// rows are independent, so any partitioning is exact; the fan-out reuses
// the same blocked discipline as ColumnNormsParallel.
func RowNormsParallel(m *Dense, workers int) []float64 {
	norms := make([]float64, m.Rows)
	par.ForBlocks(workers, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = VecNorm(m.Data[i*m.Cols : (i+1)*m.Cols])
		}
	})
	return norms
}

// ColumnSums returns the per-column sums of m. For a CP factor matrix this
// is the uniform marginalization weight of its mode: summing the model over
// every index of the mode collapses A_n to its column-sum vector.
func ColumnSums(m *Dense) []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}
