package cpals

import (
	"runtime"
	"testing"

	"cstf/internal/tensor"
)

// After warm-up, one exact iteration of Serial (COO kernel) and of the
// nonnegative rule must each allocate fewer bytes than one factor matrix:
// the exact path updates every factor in place, with no per-mode Clone and
// no unnormalized copy. The smallest factor is 600x16 (75 KiB).
func TestExactIterationAllocatesLessThanAFactor(t *testing.T) {
	x := tensor.GenZipf(21, 20000, 0.5, 1200, 1000, 600)
	const rank = 16
	factorBytes := uint64(600 * rank * 8)
	for _, c := range []struct {
		name string
		rule Rule
	}{{"serial", Rule{}}, {"nonneg", Rule{Nonneg: true, Inner: 2}}} {
		var ms runtime.MemStats
		at := make([]uint64, 0, 4)
		o := Options{Rank: rank, MaxIters: 4, Seed: 1, OnIteration: func(int, float64) bool {
			runtime.ReadMemStats(&ms)
			at = append(at, ms.TotalAlloc)
			return false
		}}
		if _, err := SolveWith(x, o, Update{Rule: c.rule}); err != nil {
			t.Fatal(err)
		}
		// Iterations 0 and 1 warm the workspace; iteration 2 ends at at[2].
		if got := at[2] - at[1]; got >= factorBytes {
			t.Errorf("%s: one iteration allocated %d bytes, want fewer than one factor's %d", c.name, got, factorBytes)
		}
	}
}

// A whole solve of a tall order-4 tensor allocates its factors, one
// MTTKRP output slab the size of the largest mode, the mode indexes and
// little else: the outputs of the other modes are views of that slab, not
// matrices of their own (which would add the three smaller modes' 2.3 MB
// here).
func TestSolveAllocatesOneOutputSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dims := []int{12000, 8000, 6000, 4000}
	const rank, nnz = 16, 30000
	x := tensor.GenLowRank(1, nnz, 8, 0.1, dims...)
	nnzs := x.NNZ()
	var factors, index uint64
	for _, d := range dims {
		factors += uint64(d * rank * 8)
		// Perm, RowPtr and the counting sort's cursor per row.
		index += uint64(nnzs*4 + d*8 + 4)
	}
	slab := uint64(dims[0] * rank * 8)
	// Grams, pseudo-inverses, lambda, the fit's blocks and the pool's
	// four goroutines: about 350 KB over the whole solve.
	const slack = 512 << 10
	bound := factors + slab + index + slack

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SolveWith(x, Options{Rank: rank, MaxIters: 3, Seed: 1, Parallelism: 4}, Update{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("the solve allocated %d bytes, want at most %d (factors %d + slab %d + mode indexes %d + slack %d)",
			got, bound, factors, slab, index, slack)
	} else {
		t.Logf("the solve allocated %d bytes of a %d bound", got, bound)
	}
}
