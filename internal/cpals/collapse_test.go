package cpals

import (
	"math"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// collapsingTensor is hyper-sparse at order 4 (2.5 nonzeros per mode-0 row)
// and solved at a rank above that: the model collapses onto a few live rows
// within three iterations, its other entries passing through 1e-34, 1e-39,
// ... on the way to zero — la.FlushBelow territory, which none of the other
// test tensors reach.
func collapsingTensor() (*tensor.COO, Options) {
	return tensor.GenLowRank(21, 3000, 3, 0.1, 1200, 800, 600, 400),
		Options{Rank: 24, MaxIters: 8, Seed: 5, Parallelism: 2}
}

const minNormal = 0x1p-1022

// Through the collapse no factor, gram or lambda entry is ever subnormal,
// no nonzero factor entry is below la.FlushBelow, and the flush is what
// gets them there: most of the model ends up exactly zero.
func TestCollapseLeavesNoSubnormals(t *testing.T) {
	x, opts := collapsingTensor()
	zeros := func(factors []*la.Dense) (n int) {
		for _, f := range factors {
			for _, v := range f.Data {
				if v == 0 {
					n++
				}
			}
		}
		return n
	}
	var zerosFirst, zerosLast int
	opts.CheckpointEvery = 1
	opts.OnCheckpoint = func(cp *ckpt.File) error {
		var model Options
		model.Restore(cp)
		it, lambda, factors := cp.Iter, model.InitLambda, model.InitFactors
		for r, v := range lambda {
			if a := math.Abs(v); a != 0 && a < minNormal {
				t.Errorf("iteration %d: lambda[%d] = %g is subnormal", it, r, v)
			}
		}
		for n, f := range factors {
			for i, v := range f.Data {
				if a := math.Abs(v); a != 0 && a < la.FlushBelow {
					t.Fatalf("iteration %d: factor %d element %d = %g is below FlushBelow", it, n, i, v)
				}
			}
			for i, v := range la.GramParallel(f, 2).Data {
				if a := math.Abs(v); a != 0 && a < minNormal {
					t.Fatalf("iteration %d: gram %d element %d = %g is subnormal", it, n, i, v)
				}
			}
		}
		if it == 1 {
			zerosFirst = zeros(factors)
		}
		zerosLast = zeros(factors)
		return nil
	}
	if _, err := Solve(x, opts); err != nil {
		t.Fatal(err)
	}
	total := opts.Rank * (1200 + 800 + 600 + 400)
	if zerosLast < total*9/10 || zerosFirst > total/10 {
		t.Fatalf("no collapse: %d of %d factor entries zero after iteration 1, %d after the last", zerosFirst, total, zerosLast)
	}
}

func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Iters != want.Iters || len(got.Fits) != len(want.Fits) {
		t.Fatalf("%s: %d iterations and %d fits, want %d and %d", label, got.Iters, len(got.Fits), want.Iters, len(want.Fits))
	}
	if got, want := resultHash(got), resultHash(want); got != want {
		t.Fatalf("%s: lambda and factors hash to %s, want %s", label, got, want)
	}
	for i := range want.Fits {
		if math.Float64bits(got.Fits[i]) != math.Float64bits(want.Fits[i]) {
			t.Fatalf("%s: fit[%d] %v != %v", label, i, got.Fits[i], want.Fits[i])
		}
	}
}

// The bitwise contracts, exercised through the flush: any Parallelism, and
// resume at iteration 3 (mid-collapse) against the uninterrupted run.
func TestCollapseBitwiseContracts(t *testing.T) {
	x, opts := collapsingTensor()
	var saved *ckpt.File
	full := opts
	full.Parallelism = 1
	full.CheckpointEvery = 3
	full.OnCheckpoint = func(cp *ckpt.File) error {
		if cp.Iter == 3 {
			saved = cp
		}
		return nil
	}
	want, err := Solve(x, full)
	if err != nil {
		t.Fatal(err)
	}

	wide := opts
	wide.Parallelism = 4
	got, err := Solve(x, wide)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "Parallelism 4 vs 1", want, got)

	resumed := opts
	resumed.Restore(saved)
	got, err = Solve(x, resumed)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "resumed at iteration 3 vs uninterrupted", want, got)
}
