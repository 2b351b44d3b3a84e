package ntf

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

// A warm start from an unconstrained CP-ALS model with negative entries —
// the path that clips the start onto the nonnegative orthant — at two inner
// passes, pinned bit for bit at Parallelism 1 and 4.
func TestSolveGoldenHash(t *testing.T) {
	x := tensor.GenZipf(3, 4000, 0.7, 40, 30, 20)
	signed, err := cpals.Solve(x, cpals.Options{Rank: 4, MaxIters: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	negative := 0
	for _, f := range signed.Factors {
		for _, v := range f.Data {
			if v < 0 {
				negative++
			}
		}
	}
	if negative == 0 {
		t.Fatal("the warm start has no negative entry to clip")
	}
	const want = "1ae1171c5f7d2462"
	for _, p := range []int{1, 4} {
		o := Options{Options: cpals.Options{Rank: 4, MaxIters: 4, Seed: 9, Parallelism: p,
			InitFactors: signed.Factors, InitLambda: signed.Lambda}, InnerIters: 2}
		res, err := Solve(x, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultHash(res); got != want {
			t.Errorf("Parallelism %d: hash %s, want %s", p, got, want)
		}
	}
}
