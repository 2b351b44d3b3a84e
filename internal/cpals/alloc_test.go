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
// MTTKRP output slab the size of the largest mode, each mode's segment
// table and little else: the outputs of the other modes are views of that
// slab, not matrices of their own (which would add the three smaller modes'
// 2.3 MB here), and the mode columns it streams are mapped outside the Go
// heap for the solve alone — exactly 8 + 4·(order−1) bytes a nonzero per
// mode not in storage order, none once it returns.
func TestSolveAllocatesOneOutputSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dims := []int{12000, 8000, 6000, 4000}
	const rank, nnz = 16, 30000
	x := tensor.GenLowRank(1, nnz, 8, 0.1, dims...)
	nnzs := x.NNZ()
	var factors, rowPtrs, columns uint64
	for m, d := range dims {
		factors += uint64(d * rank * 8)
		rowPtrs += uint64(d*4 + 4)
		if !inStorageOrder(x, m) {
			columns += uint64(nnzs * (8 + 4*(len(dims)-1)))
		}
	}
	// DedupSum leaves the nonzeros in mode 0's order.
	if want := uint64(nnzs * (8 + 4*(len(dims)-1)) * (len(dims) - 1)); columns != want {
		t.Fatalf("the copied modes take %d bytes, want %d (every mode but 0)", columns, want)
	}
	slab := uint64(dims[0] * rank * 8)
	// Grams, pseudo-inverses, lambda, the fit's blocks and the pool's
	// four goroutines: about 350 KB over the whole solve.
	const slack = 512 << 10
	bound := factors + slab + rowPtrs + slack

	var before, after runtime.MemStats
	var during []int64
	o := Options{Rank: rank, MaxIters: 3, Seed: 1, Parallelism: 4, OnIteration: func(int, float64) bool {
		during = append(during, liveResident.Load())
		return false
	}}
	runtime.ReadMemStats(&before)
	if _, err := SolveWith(x, o, Update{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("the solve allocated %d bytes, want at most %d (factors %d + slab %d + segment tables %d + slack %d)",
			got, bound, factors, slab, rowPtrs, slack)
	} else {
		t.Logf("the solve allocated %d bytes of a %d bound", got, bound)
	}
	for it, got := range during {
		if uint64(got) != columns {
			t.Errorf("iteration %d: %d bytes of mode columns mapped, want %d", it, got, columns)
		}
	}
	if got := liveResident.Load(); got != 0 {
		t.Errorf("%d bytes of mode columns still mapped after the solve", got)
	}
}

// inStorageOrder reports whether x's index along mode never decreases in
// storage order, so that a solve streams the entries and copies nothing.
func inStorageOrder(x *tensor.COO, mode int) bool {
	for i := 1; i < len(x.Entries); i++ {
		if x.Entries[i].Idx[mode] < x.Entries[i-1].Idx[mode] {
			return false
		}
	}
	return true
}
