package cstf_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"cstf"
)

// A fault schedule dense enough that a 2-iteration run is guaranteed to
// see every event kind.
func testChaos() *cstf.ChaosSpec {
	return &cstf.ChaosSpec{
		Seed:            1,
		HorizonStages:   8,
		NodeCrashes:     1,
		Stragglers:      1,
		StragglerFactor: 4,
	}
}

// An identical ChaosSpec seed must replay bitwise-identically: same fault
// metrics, same factors, same fits — across repeated runs and across every
// host Parallelism setting (the fault schedule keys off the stage clock,
// never off goroutine timing).
func TestChaosDeterministicAcrossRunsAndParallelism(t *testing.T) {
	x := apiTestTensor()
	opt := cstf.Options{
		Algorithm: cstf.COO, Rank: 2, MaxIters: 2, NoConvergenceCheck: true,
		Seed: 3, Faults: cstf.FaultOptions{Chaos: testChaos()},
	}
	opt.Parallelism = 1
	base, err := cstf.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Metrics.NodeCrashes != 1 {
		t.Fatalf("chaos schedule did not fire: %+v", base.Metrics)
	}
	if base.Metrics.RecomputedPartitions == 0 {
		t.Fatalf("crash recovered without lineage recomputation: %+v", base.Metrics)
	}
	for _, workers := range []int{1, 2, 8} {
		opt.Parallelism = workers
		got, err := cstf.Decompose(x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Metrics, base.Metrics) {
			t.Fatalf("parallelism %d: metrics diverged:\n%+v\nvs\n%+v", workers, got.Metrics, base.Metrics)
		}
		if !reflect.DeepEqual(got.Fits, base.Fits) {
			t.Fatalf("parallelism %d: fits diverged: %v vs %v", workers, got.Fits, base.Fits)
		}
		requireSameFactors(t, base, got, 0)
	}
}

// Lineage recomputation is exact: a run that loses a node mid-iteration
// must converge to bitwise the same factors as the fault-free run, just
// with recovery time charged on top.
func TestChaosRecoveryMatchesFaultFree(t *testing.T) {
	x := apiTestTensor()
	for _, algo := range []cstf.Algorithm{cstf.COO, cstf.QCOO} {
		opt := cstf.Options{
			Algorithm: algo, Rank: 2, MaxIters: 2, NoConvergenceCheck: true, Seed: 3,
		}
		clean, err := cstf.Decompose(x, opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		opt.Faults.Chaos = testChaos()
		faulty, err := cstf.Decompose(x, opt)
		if err != nil {
			t.Fatalf("%s with chaos: %v", algo, err)
		}
		if faulty.Metrics.NodeCrashes == 0 || faulty.Metrics.RecomputedPartitions == 0 {
			t.Fatalf("%s: no crash delivered: %+v", algo, faulty.Metrics)
		}
		if faulty.Metrics.RecoverySeconds <= 0 {
			t.Fatalf("%s: recovery was free: %+v", algo, faulty.Metrics)
		}
		if faulty.Metrics.SimSeconds <= clean.Metrics.SimSeconds {
			t.Errorf("%s: faulty run (%.2fs) not slower than clean (%.2fs)",
				algo, faulty.Metrics.SimSeconds, clean.Metrics.SimSeconds)
		}
		if !reflect.DeepEqual(faulty.Fits, clean.Fits) {
			t.Fatalf("%s: fits changed under faults: %v vs %v", algo, faulty.Fits, clean.Fits)
		}
		requireSameFactors(t, clean, faulty, 0)
	}
}

// The Hadoop engine recovers crashes by HDFS re-replication instead of
// lineage; the numbers must still come out identical.
func TestChaosBigTensorRecovery(t *testing.T) {
	x := apiTestTensor()
	opt := cstf.Options{
		Algorithm: cstf.BigTensor, Rank: 2, MaxIters: 2, NoConvergenceCheck: true, Seed: 3,
	}
	clean, err := cstf.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults.Chaos = &cstf.ChaosSpec{Seed: 1, HorizonStages: 8, NodeCrashes: 1}
	faulty, err := cstf.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Metrics.NodeCrashes != 1 {
		t.Fatalf("no crash delivered: %+v", faulty.Metrics)
	}
	if faulty.Metrics.ReReplicatedBytes <= 0 {
		t.Fatalf("crash did not trigger re-replication: %+v", faulty.Metrics)
	}
	requireSameFactors(t, clean, faulty, 0)
}

// Checkpoint at iteration 4 of 6, then resume: the resumed run must land
// on the same trajectory as the uninterrupted solve — ALS is a
// deterministic fixed-point iteration, and the checkpoint captures the
// complete state at an iteration boundary. Serial and COO are bitwise;
// QCOO's rebuilt queue RDD lists records in original entry order rather
// than the live pipeline's shuffled order, so its sums can round one ulp
// differently (see core.NewQCOOStateFromFactors).
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	x := apiTestTensor()
	for _, tc := range []struct {
		algo cstf.Algorithm
		tol  float64
	}{{cstf.Serial, 0}, {cstf.COO, 0}, {cstf.QCOO, 1e-12}} {
		algo, tol := tc.algo, tc.tol
		t.Run(string(algo), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cp.gob")
			full := cstf.Options{
				Algorithm: algo, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 5,
			}
			want, err := cstf.Decompose(x, full)
			if err != nil {
				t.Fatal(err)
			}

			head := full
			head.MaxIters = 4
			head.Faults.CheckpointEvery = 2
			head.Faults.CheckpointPath = path
			if _, err := cstf.Decompose(x, head); err != nil {
				t.Fatalf("head: %v", err)
			}

			got, err := cstf.DecomposeResume(x, path, full)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got.Iters != want.Iters {
				t.Fatalf("resumed Iters=%d, want %d", got.Iters, want.Iters)
			}
			if len(got.Fits) != len(want.Fits) {
				t.Fatalf("resumed fits %v, want %v", got.Fits, want.Fits)
			}
			for i := range want.Fits {
				if d := math.Abs(got.Fits[i] - want.Fits[i]); d > tol {
					t.Fatalf("resumed fit[%d] %v, want %v", i, got.Fits[i], want.Fits[i])
				}
			}
			requireSameFactors(t, want, got, tol)
		})
	}
}

// BigTensor's resume goes through NewFromFactors (tensor re-upload,
// normalized factors, fresh grams); its trajectory must match the
// uninterrupted run to floating-point noise.
func TestCheckpointResumeBigTensor(t *testing.T) {
	x := apiTestTensor()
	path := filepath.Join(t.TempDir(), "cp.gob")
	full := cstf.Options{
		Algorithm: cstf.BigTensor, Rank: 2, MaxIters: 4, NoConvergenceCheck: true, Seed: 5,
	}
	want, err := cstf.Decompose(x, full)
	if err != nil {
		t.Fatal(err)
	}
	head := full
	head.MaxIters = 2
	head.Faults.CheckpointEvery = 2
	head.Faults.CheckpointPath = path
	headDec, err := cstf.Decompose(x, head)
	if err != nil {
		t.Fatal(err)
	}
	if headDec.Metrics.CheckpointSeconds <= 0 {
		t.Fatalf("checkpoint write was not charged: %+v", headDec.Metrics)
	}
	got, err := cstf.DecomposeResume(x, path, full)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != want.Iters {
		t.Fatalf("resumed Iters=%d, want %d", got.Iters, want.Iters)
	}
	requireSameFactors(t, want, got, 1e-9)
}

// Resume must reject a checkpoint that does not match the request.
func TestDecomposeResumeValidates(t *testing.T) {
	x := apiTestTensor()
	path := filepath.Join(t.TempDir(), "cp.gob")
	head := cstf.Options{
		Algorithm: cstf.Serial, Rank: 3, MaxIters: 2, NoConvergenceCheck: true, Seed: 5,
		Faults: cstf.FaultOptions{CheckpointEvery: 1, CheckpointPath: path},
	}
	if _, err := cstf.Decompose(x, head); err != nil {
		t.Fatal(err)
	}
	bad := []cstf.Options{
		{Algorithm: cstf.COO, Rank: 3, MaxIters: 4},    // wrong algorithm
		{Algorithm: cstf.Serial, Rank: 4, MaxIters: 4}, // wrong rank
	}
	for _, o := range bad {
		if _, err := cstf.DecomposeResume(x, path, o); err == nil {
			t.Fatalf("resume with mismatched %+v did not fail", o)
		}
	}
	if _, err := cstf.DecomposeResume(x, filepath.Join(t.TempDir(), "missing.gob"),
		cstf.Options{Algorithm: cstf.Serial, Rank: 3, MaxIters: 4}); err == nil {
		t.Fatal("resume from a missing file did not fail")
	}
}

// Chaos on the serial algorithm is a contradiction and must error.
func TestChaosRequiresDistributed(t *testing.T) {
	x := apiTestTensor()
	_, err := cstf.Decompose(x, cstf.Options{
		Algorithm: cstf.Serial, Rank: 2, MaxIters: 2, Faults: cstf.FaultOptions{Chaos: testChaos()},
	})
	if err == nil {
		t.Fatal("serial + chaos did not fail")
	}
}

// requireSameFactors compares factor matrices element-wise. tol 0 demands
// bitwise equality.
func requireSameFactors(t *testing.T, want, got *cstf.Decomposition, tol float64) {
	t.Helper()
	if len(want.Factors) != len(got.Factors) {
		t.Fatalf("factor count %d vs %d", len(got.Factors), len(want.Factors))
	}
	for n := range want.Factors {
		wf, gf := want.Factors[n], got.Factors[n]
		for i := 0; i < wf.Rows(); i++ {
			for j := 0; j < wf.Cols(); j++ {
				w, g := wf.At(i, j), gf.At(i, j)
				if tol == 0 && w != g {
					t.Fatalf("factor %d (%d,%d): %v != %v", n, i, j, g, w)
				}
				if tol > 0 && math.Abs(w-g) > tol*math.Max(1, math.Abs(w)) {
					t.Fatalf("factor %d (%d,%d): %v vs %v beyond tol %g", n, i, j, g, w, tol)
				}
			}
		}
	}
}
