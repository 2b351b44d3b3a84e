package cstf_test

import (
	"context"
	"strings"
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
	for _, tc := range []struct {
		name  string
		chaos *cstf.ChaosSpec
	}{
		{"clean", nil},
		{"chaos", &cstf.ChaosSpec{Seed: 1, HorizonStages: 6, NodeCrashes: 1, Stragglers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(seed uint64) cstf.Options {
				o := cstf.Options{Algorithm: cstf.QCOO, Rank: 2, MaxIters: 2, NoConvergenceCheck: true, Seed: seed}
				o.Faults.Chaos = tc.chaos
				return o
			}
			opt := opts(5)

			// Reference: run the restarts by hand.
			var wantBest *cstf.Decomposition
			wantIdx := 0
			var want cstf.Metrics
			singles := make([]*cstf.Decomposition, restarts)
			for r := 0; r < restarts; r++ {
				dec, err := cstf.Decompose(x, opts(cstf.RestartSeed(opt.Seed, r)))
				if err != nil {
					t.Fatal(err)
				}
				singles[r] = dec
				m := dec.Metrics
				want.SimSeconds += m.SimSeconds
				want.Shuffles += m.Shuffles
				want.NodeCrashes += m.NodeCrashes
				want.StragglerStages += m.StragglerStages
				want.RecoverySeconds += m.RecoverySeconds
				if wantBest == nil || dec.Fit() > wantBest.Fit() {
					wantBest, wantIdx = dec, r
				}
			}
			if tc.chaos != nil && (want.NodeCrashes == 0 || want.StragglerStages == 0 || want.RecoverySeconds == 0) {
				t.Fatalf("chaos schedule delivered no faults: %+v", want)
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
			m := got.Metrics
			if m.SimSeconds != want.SimSeconds {
				t.Fatalf("summed SimSeconds %v, want %v", m.SimSeconds, want.SimSeconds)
			}
			if m.Shuffles != want.Shuffles {
				t.Fatalf("summed Shuffles %d, want %d", m.Shuffles, want.Shuffles)
			}
			if m.NodeCrashes != want.NodeCrashes || m.StragglerStages != want.StragglerStages ||
				m.RecoverySeconds != want.RecoverySeconds {
				t.Fatalf("summed fault counters crashes=%d stragglers=%d recovery=%v, want %d, %d, %v",
					m.NodeCrashes, m.StragglerStages, m.RecoverySeconds,
					want.NodeCrashes, want.StragglerStages, want.RecoverySeconds)
			}
		})
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

// Options.Dist names a fleet; an algorithm that cannot run on one rejects
// it, naming the registry's algorithms that can, instead of ignoring it.
func TestDistOptionsRejectedOffFleet(t *testing.T) {
	x := apiTestTensor()
	fleets := map[string]cstf.DistOptions{
		"addrs": {Addrs: []string{"127.0.0.1:1"}},
		"local": {LocalWorkers: 2},
	}
	for _, algo := range []cstf.Algorithm{cstf.Serial, cstf.COO, cstf.QCOO, cstf.BigTensor} {
		for name, d := range fleets {
			_, err := cstf.Decompose(x, cstf.Options{Algorithm: algo, Rank: 2, MaxIters: 1, Dist: d})
			if err == nil || !strings.Contains(err.Error(), "dist, rals, ncp") {
				t.Errorf("%s with %s fleet: error %v, want one naming dist, rals, ncp", algo, name, err)
			}
		}
	}
}
