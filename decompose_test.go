package cstf_test

import (
	"context"
	"testing"

	"cstf"
)

func apiTestTensor() *cstf.Tensor {
	return cstf.ZipfTensor(3, 4000, 0.5, 60, 50, 40)
}

// NoConvergenceCheck must run all MaxIters iterations, and the default Tol
// must still stop a converged run early.
func TestNoConvergenceCheckRunsAllIters(t *testing.T) {
	x := apiTestTensor()
	dec, err := cstf.Decompose(x, cstf.Options{Algorithm: cstf.Serial, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Iters != 6 {
		t.Fatalf("iters %d, want 6", dec.Iters)
	}
	if len(dec.Fits) != 6 {
		t.Fatalf("%d fits, want 6", len(dec.Fits))
	}
}

// Factors out of the public API must be bitwise identical for every
// Parallelism setting.
func TestDecomposeParallelismDeterministic(t *testing.T) {
	x := apiTestTensor()
	opt := cstf.Options{Algorithm: cstf.Serial, Rank: 4, MaxIters: 5, Seed: 9}
	opt.Parallelism = 1
	base, err := cstf.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opt.Parallelism = workers
		got, err := cstf.Decompose(x, opt)
		if err != nil {
			t.Fatal(err)
		}
		for n := range base.Factors {
			bf, gf := base.Factors[n], got.Factors[n]
			for i := 0; i < bf.Rows(); i++ {
				for j := 0; j < bf.Cols(); j++ {
					if bf.At(i, j) != gf.At(i, j) {
						t.Fatalf("parallelism %d: factor %d (%d,%d) differs", workers, n, i, j)
					}
				}
			}
		}
	}
}

func TestDecomposeContextCancelled(t *testing.T) {
	x := apiTestTensor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []cstf.Algorithm{cstf.Serial, cstf.COO, cstf.QCOO, cstf.BigTensor} {
		_, err := cstf.DecomposeContext(ctx, x, cstf.Options{Algorithm: algo, Rank: 2, MaxIters: 3})
		if err != context.Canceled {
			t.Fatalf("%s: want context.Canceled, got %v", algo, err)
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	x := apiTestTensor()
	for _, algo := range []cstf.Algorithm{cstf.Serial, cstf.QCOO} {
		var iters []int
		var lastFit float64
		dec, err := cstf.Decompose(x, cstf.Options{
			Algorithm: algo, Rank: 2, MaxIters: 8, NoConvergenceCheck: true,
			OnIteration: func(iter int, fit float64) bool {
				iters = append(iters, iter)
				lastFit = fit
				return iter >= 1 // stop after the second iteration
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if dec.Iters != 2 {
			t.Fatalf("%s: early stop left Iters=%d, want 2", algo, dec.Iters)
		}
		if len(iters) != 2 || iters[0] != 0 || iters[1] != 1 {
			t.Fatalf("%s: callback saw iterations %v", algo, iters)
		}
		if lastFit != dec.Fit() {
			t.Fatalf("%s: callback fit %v != final fit %v", algo, lastFit, dec.Fit())
		}
	}
}

// DecomposeBest must report which restart won and aggregate the simulated
// cluster cost over ALL restarts, not just the winner's.
func TestDecomposeBestRecordsWinnerAndSumsMetrics(t *testing.T) {
	x := apiTestTensor()
	const restarts = 3
	opt := cstf.Options{Algorithm: cstf.QCOO, Rank: 2, MaxIters: 2, NoConvergenceCheck: true, Seed: 5}

	// Reference: run the restarts by hand.
	var wantBest *cstf.Decomposition
	wantIdx := 0
	var wantSim float64
	var wantShuffles int
	singles := make([]*cstf.Decomposition, restarts)
	for r := 0; r < restarts; r++ {
		dec, err := cstf.Decompose(x, cstf.Options{
			Algorithm: cstf.QCOO, Rank: 2, MaxIters: 2, NoConvergenceCheck: true,
			Seed: cstf.RestartSeed(opt.Seed, r),
		})
		if err != nil {
			t.Fatal(err)
		}
		singles[r] = dec
		wantSim += dec.Metrics.SimSeconds
		wantShuffles += dec.Metrics.Shuffles
		if wantBest == nil || dec.Fit() > wantBest.Fit() {
			wantBest, wantIdx = dec, r
		}
	}

	got, err := cstf.DecomposeBest(x, opt, restarts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Restart != wantIdx {
		t.Fatalf("winner restart %d, want %d", got.Restart, wantIdx)
	}
	if got.Seed != singles[wantIdx].Seed {
		t.Fatalf("winner seed %d, want %d", got.Seed, singles[wantIdx].Seed)
	}
	if got.Fit() != wantBest.Fit() {
		t.Fatalf("winner fit %v, want %v", got.Fit(), wantBest.Fit())
	}
	if got.Metrics.SimSeconds != wantSim {
		t.Fatalf("summed SimSeconds %v, want %v", got.Metrics.SimSeconds, wantSim)
	}
	if got.Metrics.Shuffles != wantShuffles {
		t.Fatalf("summed Shuffles %d, want %d", got.Metrics.Shuffles, wantShuffles)
	}
}

func TestDecomposeBestSerialDeterministicAcrossParallelism(t *testing.T) {
	x := apiTestTensor()
	opt := cstf.Options{Algorithm: cstf.Serial, Rank: 3, MaxIters: 3, Seed: 2}
	opt.Parallelism = 1
	a, err := cstf.DecomposeBest(x, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 8
	b, err := cstf.DecomposeBest(x, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Restart != b.Restart || a.Fit() != b.Fit() || a.Seed != b.Seed {
		t.Fatalf("restart/fit/seed changed with parallelism: (%d,%v,%d) vs (%d,%v,%d)",
			a.Restart, a.Fit(), a.Seed, b.Restart, b.Fit(), b.Seed)
	}
}
