package cpals

import (
	"fmt"
	"math"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// everyRow is a Sampler that restricts nothing but still lists its rows:
// each update contracts t and solves every row of its mode by name.
type everyRow struct{ t *tensor.COO }

func (s everyRow) Mode(n int, factors, _ []*la.Dense) (*tensor.COO, *la.Dense, []int) {
	rows := make([]int, s.t.Dims[n])
	for i := range rows {
		rows[i] = i
	}
	return s.t, factors[n], rows
}

func (everyRow) Fit() bool                  { return true }
func (everyRow) Checkpoint(*ckpt.File) bool { return false }

// A row set that lists every row is the exact update: the restricted
// MTTKRP's ranges, the lambda absorbed before the solve and the listed-row
// solve give the warm-started exact iteration's lambda and factors bit for
// bit, under either rule and at any parallelism. Only the fit comes from a
// different pass over the nonzeros.
func TestEveryRowSetIsTheExactUpdate(t *testing.T) {
	x := parallelTestTensor(3)
	warm, err := Solve(x, Options{Rank: 4, MaxIters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []Rule{{}, {Nonneg: true, Inner: 3}} {
		for _, p := range []int{1, 4} {
			label := fmt.Sprintf("%+v P=%d", rule, p)
			o := Options{Rank: 4, MaxIters: 2, Seed: 7, Parallelism: p, InitFactors: warm.Factors, InitLambda: warm.Lambda}
			want, err := SolveWith(x, o, Update{Rule: rule})
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveWith(x, o, Update{Rule: rule, Sampler: everyRow{x}})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultHash(got), resultHash(want); g != w {
				t.Fatalf("%s: lambda and factors hash to %s, want %s", label, g, w)
			}
			if g, w := got.Fit(), want.Fit(); math.Abs(g-w) > 1e-12 {
				t.Fatalf("%s: fit %v, want %v", label, g, w)
			}
		}
	}
}
