package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"cstf/internal/rng"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range [][]int{{}, {0}, {3, -1}, {1, 1, 1, 1, 1, 1, 1, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) should panic", bad)
				}
			}()
			New(bad...)
		}()
	}
}

func TestAppendAndAccessors(t *testing.T) {
	x := New(3, 4, 5)
	x.Append(1.5, 0, 1, 2)
	x.Append(-2.5, 2, 3, 4)
	if x.Order() != 3 || x.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
	if x.At(0, 1, 2) != 1.5 || x.At(2, 3, 4) != -2.5 || x.At(1, 1, 1) != 0 {
		t.Fatal("At returned wrong values")
	}
	if x.MaxModeSize() != 5 {
		t.Fatalf("max mode size %d", x.MaxModeSize())
	}
	wantDensity := 2.0 / 60.0
	if math.Abs(x.Density()-wantDensity) > 1e-15 {
		t.Fatalf("density %g, want %g", x.Density(), wantDensity)
	}
}

func TestAppendBoundsCheck(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Append should panic")
		}
	}()
	x.Append(1, 0, 2)
}

func TestNorm(t *testing.T) {
	x := New(2, 2)
	x.Append(3, 0, 0)
	x.Append(4, 1, 1)
	if math.Abs(x.Norm()-5) > 1e-15 {
		t.Fatalf("norm %g, want 5", x.Norm())
	}
}

func TestSortAndDedupSum(t *testing.T) {
	x := New(3, 3)
	x.Append(1, 2, 2)
	x.Append(2, 0, 1)
	x.Append(3, 2, 2)  // duplicate of first
	x.Append(-2, 0, 1) // cancels second
	x.DedupSum()
	if x.NNZ() != 1 {
		t.Fatalf("nnz after dedup = %d, want 1 (cancellations dropped)", x.NNZ())
	}
	if x.At(2, 2) != 4 {
		t.Fatalf("merged value %g, want 4", x.At(2, 2))
	}
}

func TestDedupPreservesAtSemantics(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		x := New(4, 3, 2)
		for n := 0; n < 30; n++ {
			x.Append(src.Float64()+0.1, src.Intn(4), src.Intn(3), src.Intn(2))
		}
		before := make(map[[3]int]float64)
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 2; k++ {
					before[[3]int{i, j, k}] = x.At(i, j, k)
				}
			}
		}
		x.DedupSum()
		for c, v := range before {
			if math.Abs(x.At(c[0], c[1], c[2])-v) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2)
	x.Append(1, 0, 0)
	c := x.Clone()
	c.Entries[0].Val = 99
	if x.Entries[0].Val != 1 {
		t.Fatal("clone must not share entry storage")
	}
}

func TestEntryBytes(t *testing.T) {
	if EntryBytes(3) != 32 || EntryBytes(4) != 40 {
		t.Fatalf("EntryBytes: %d, %d", EntryBytes(3), EntryBytes(4))
	}
}

// delinearizeCol recovers the per-mode indices encoded in a matricized
// column index. idx[n] is left as 0. This is the z/J, z%J arithmetic the
// GigaTensor map tasks perform to find which factor rows a column needs.
func delinearizeCol(col uint64, dims []int, n int, idx []uint32) {
	for k := range dims {
		if k == n {
			idx[k] = 0
			continue
		}
		idx[k] = uint32(col % uint64(dims[k]))
		col /= uint64(dims[k])
	}
}

func TestMatricizeRoundTrip(t *testing.T) {
	// Mode-n unfolding must be reversible via delinearizeCol.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		dims := []int{2 + src.Intn(5), 2 + src.Intn(5), 2 + src.Intn(5), 2 + src.Intn(3)}
		x := GenUniform(seed, 40, dims...)
		for n := 0; n < len(dims); n++ {
			strides := UnfoldStrides(dims, n)
			idx := make([]uint32, len(dims))
			for i := range x.Entries {
				e := &x.Entries[i]
				row, col := LinearizeEntry(e, n, strides)
				if row != e.Idx[n] {
					return false
				}
				delinearizeCol(col, dims, n, idx)
				for k := range dims {
					if k != n && idx[k] != e.Idx[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatricizeMode0Convention(t *testing.T) {
	// For a 3rd-order tensor, mode-0 unfolding must use col = j + k*J,
	// matching the z/J, z%J recovery in Equation 2 of the paper.
	x := New(4, 3, 5)
	x.Append(7, 1, 2, 4)
	m := x.Matricize(0)
	if len(m) != 1 {
		t.Fatal("expected one nonzero")
	}
	wantCol := uint64(2 + 4*3)
	if m[0].Row != 1 || m[0].Col != wantCol || m[0].Val != 7 {
		t.Fatalf("got (%d,%d,%g), want (1,%d,7)", m[0].Row, m[0].Col, m[0].Val, wantCol)
	}
	// z % J recovers j, z / J recovers k.
	if m[0].Col%3 != 2 || m[0].Col/3 != 4 {
		t.Fatal("z%%J / z/J recovery broken")
	}
}

func TestGenUniformDeterministicAndInBounds(t *testing.T) {
	a := GenUniform(42, 500, 20, 30, 10)
	b := GenUniform(42, 500, 20, 30, 10)
	if a.NNZ() != b.NNZ() {
		t.Fatal("generator must be deterministic")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatal("generator must be deterministic entry-wise")
		}
		for m, d := range a.Dims {
			if a.Entries[i].Idx[m] >= uint32(d) {
				t.Fatal("index out of bounds")
			}
		}
	}
	if a.NNZ() < 450 {
		t.Fatalf("excessive duplicate merging: nnz=%d", a.NNZ())
	}
}

func TestGenZipfSkew(t *testing.T) {
	x := GenZipf(7, 2000, 0.9, 1000, 1000, 1000)
	// Zipf-skewed data must concentrate mass: the most popular mode-0
	// index should appear far more often than the uniform expectation (~2).
	counts := map[uint32]int{}
	for i := range x.Entries {
		counts[x.Entries[i].Idx[0]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10 {
		t.Fatalf("expected heavy-tailed occupancy, max fiber count = %d", max)
	}
}

func TestGenLowRankIsLowRank(t *testing.T) {
	// All planted values must be positive (factors are in [0.1, 1.1)) and
	// deterministic.
	a := GenLowRank(5, 200, 3, 0, 10, 12, 14)
	b := GenLowRank(5, 200, 3, 0, 10, 12, 14)
	if a.NNZ() != b.NNZ() {
		t.Fatal("GenLowRank must be deterministic")
	}
	for i := range a.Entries {
		if a.Entries[i].Val <= 0 {
			t.Fatal("noiseless planted values must be positive")
		}
	}
}
