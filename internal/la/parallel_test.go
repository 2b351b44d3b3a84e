package la

import (
	"math"
	"testing"

	"cstf/internal/rng"
)

func randTall(rows, cols int, seed uint64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.UniformAt(seed, uint64(i)) - 0.5
	}
	return m
}

// Blocked parallel gram must be bitwise identical across worker counts and
// numerically equal (to rounding) to the sequential gram.
func TestGramParallelDeterministic(t *testing.T) {
	m := randTall(3*2048+513, 6, 7)
	want := GramParallel(m, 1)
	for _, workers := range []int{2, 4, 8} {
		got := GramParallel(m, workers)
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("workers=%d: gram differs bitwise by %g", workers, d)
		}
	}
	seq := m.Gram()
	if d := MaxAbsDiff(want, seq); d > 1e-10 {
		t.Fatalf("blocked gram differs from sequential by %g", d)
	}
}

func TestColumnNormsParallelDeterministic(t *testing.T) {
	m := randTall(2*2048+99, 5, 3)
	want := ColumnNormsParallel(m, 1)
	for _, workers := range []int{2, 8} {
		if d := VecMaxAbsDiff(ColumnNormsParallel(m, workers), want); d != 0 {
			t.Fatalf("workers=%d: column norms differ bitwise by %g", workers, d)
		}
	}
	if d := VecMaxAbsDiff(want, m.ColumnNorms()); d > 1e-10 {
		t.Fatalf("blocked norms differ from sequential by %g", d)
	}
}

func TestNormalizeColumnsParallelDeterministic(t *testing.T) {
	base := randTall(2048+777, 4, 11)
	want := base.Clone()
	wantNorms := NormalizeColumnsParallel(want, 1)
	for _, workers := range []int{2, 8} {
		got := base.Clone()
		gotNorms := NormalizeColumnsParallel(got, workers)
		if d := VecMaxAbsDiff(gotNorms, wantNorms); d != 0 {
			t.Fatalf("workers=%d: norms differ bitwise by %g", workers, d)
		}
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("workers=%d: normalized matrix differs bitwise by %g", workers, d)
		}
	}
}

func TestNormalizeColumnsParallelZeroColumn(t *testing.T) {
	m := NewDense(10, 2)
	for i := 0; i < 10; i++ {
		m.Set(i, 0, float64(i+1))
	}
	norms := NormalizeColumnsParallel(m, 4)
	if norms[1] != 1 {
		t.Fatalf("zero column should report norm 1, got %v", norms[1])
	}
	for i := 0; i < 10; i++ {
		if m.At(i, 1) != 0 {
			t.Fatal("zero column must stay zero")
		}
	}
}

func TestRowBlocksApplyCoverage(t *testing.T) {
	n := 2*2048 + 31
	seen := make([]int, n)
	RowBlocksApply(4, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d visited %d times", i, c)
		}
	}
}

func seededDense(seed uint64, r, c int) *Dense {
	g := rng.New(seed)
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = g.Float64()*2 - 1
	}
	return m
}

func TestRowNormsParallel(t *testing.T) {
	m := seededDense(10, 4100, 7) // spans multiple blocks
	for _, workers := range []int{1, 4} {
		norms := RowNormsParallel(m, workers)
		for i := 0; i < m.Rows; i += 997 {
			if want := VecNorm(m.Row(i)); norms[i] != want {
				t.Fatalf("workers=%d row %d norm %v want %v", workers, i, norms[i], want)
			}
		}
	}
}

func TestColumnSums(t *testing.T) {
	m := seededDense(11, 123, 3)
	sums := ColumnSums(m)
	for j := 0; j < m.Cols; j++ {
		var want float64
		for i := 0; i < m.Rows; i++ {
			want += m.At(i, j)
		}
		if math.Abs(sums[j]-want) > 1e-12 {
			t.Fatalf("col %d sum %v want %v", j, sums[j], want)
		}
	}
}
