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
