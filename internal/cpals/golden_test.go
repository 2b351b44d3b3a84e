package cpals

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cstf/internal/tensor"
)

// resultHash is FNV-1a over the bit patterns of lambda, every factor and
// then each extra vector, in that order.
func resultHash(res *Result, extra ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(res.Lambda)
	for _, f := range res.Factors {
		put(f.Data)
	}
	for _, vs := range extra {
		put(vs)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// The first two hashes were captured on the commit before the fused MTTKRP
// kernel replaced the fill/VecMulInto/VecAdd loop: Solve must keep producing
// the same bits through any later kernel work, at every Parallelism. The
// third is collapsingTensor, whose factors pass through la.FlushBelow; it
// was captured on the commit that introduced the flush. The csf rows run the
// same tensors through the CSF kernel (Options.CSFKernel), whose factored
// sums differ from the COO kernel's in the last bits.
func TestSolveGoldenHash(t *testing.T) {
	collapsing, collapsingOpts := collapsingTensor()
	cases := []struct {
		name        string
		x           *tensor.COO
		rank, iters int
		csf         bool
		want        string
	}{
		{"order3", tensor.GenZipf(11, 6000, 0.7, 60, 50, 40), 6, 4, false, "c0f7660e5a4294a2"},
		{"order4", tensor.GenLowRank(12, 5000, 3, 0.1, 30, 25, 20, 15), 5, 4, false, "161d1181ee28c3cc"},
		{"collapsing", collapsing, collapsingOpts.Rank, collapsingOpts.MaxIters, false, "fab6ee9777bdd519"},
		{"order3 csf", tensor.GenZipf(11, 6000, 0.7, 60, 50, 40), 6, 4, true, "3ec2a1979939ad23"},
		{"order4 csf", tensor.GenLowRank(12, 5000, 3, 0.1, 30, 25, 20, 15), 5, 4, true, "6549f2b4406ff29f"},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			res, err := Solve(c.x, Options{Rank: c.rank, MaxIters: c.iters, Seed: 5, Parallelism: p, CSFKernel: c.csf})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(res); got != c.want {
				t.Errorf("%s Parallelism %d: hash %s, want %s", c.name, p, got, c.want)
			}
		}
	}
}
