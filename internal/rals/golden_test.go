package rals

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

// resultHash is FNV-1a over the bit patterns of lambda, every factor and the
// fit history, in that order.
func resultHash(res *cpals.Result) string {
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
	put(res.Fits)
	return fmt.Sprintf("%016x", h.Sum64())
}

// The sampled paths no other golden file holds, pinned bit for bit at
// Parallelism 1 and 4: a sampled run that ends in an exact polish with only
// the final fit; a warm start from a trained model without sampler state
// (the streaming updater's sampled sweep); and the options the dist tests
// run over the wire, whose hash internal/dist pins its killed-worker run to.
func TestSolveGoldenHash(t *testing.T) {
	x := testTensor()
	warm, err := cpals.Solve(x, cpals.Options{Rank: 4, MaxIters: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		x    *tensor.COO
		o    Options
		want string
	}{
		{"polish", x, Options{Options: cpals.Options{Rank: 4, MaxIters: 8, Seed: 3},
			SampleFraction: 0.25, ResampleEvery: 2, ExactFinishIters: 2, FinalFitOnly: true}, "f9b3efcf9a9dc6ff"},
		{"warm start", x, Options{Options: cpals.Options{Rank: 4, MaxIters: 3, Seed: 5,
			InitFactors: warm.Factors, InitLambda: warm.Lambda}, SampleFraction: 0.4, FinalFitOnly: true}, "2c124eeba7d4742d"},
		{"dist options", tensor.GenLowRank(42, 3000, 4, 0.01, 60, 50, 40), Options{Options: cpals.Options{Rank: 4, MaxIters: 6, Seed: 7},
			SampleFraction: 0.3, ResampleEvery: 2}, "731eec5703d5d74c"},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			o := c.o
			o.Parallelism = p
			res, err := Solve(c.x, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(res); got != c.want {
				t.Errorf("%s Parallelism %d: hash %s, want %s", c.name, p, got, c.want)
			}
		}
	}
}
