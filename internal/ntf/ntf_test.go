package ntf

import (
	"math"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

func testTensor() *tensor.COO {
	// Nonnegative low-rank structure plus noise: the workload the solver is
	// for. GenLowRank plants factors in [0.1, 1.1), so the data is >= 0.
	return tensor.GenLowRank(7, 3000, 3, 0.05, 40, 30, 20)
}

func solveOpts() Options {
	return Options{Options: cpals.Options{Rank: 3, MaxIters: 8, Seed: 11, Parallelism: 1}}
}

// Every factor element and every lambda must come out nonnegative.
func TestFactorsNonnegative(t *testing.T) {
	res, err := Solve(testTensor(), solveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range res.Factors {
		for i, v := range f.Data {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("factor %d element %d = %v, want >= 0", n, i, v)
			}
		}
	}
	for r, l := range res.Lambda {
		if l < 0 || math.IsNaN(l) {
			t.Fatalf("lambda[%d] = %v, want >= 0", r, l)
		}
	}
}

// Each coordinate update exactly minimizes a convex quadratic clipped at
// zero and skipped updates change nothing, so the fit can never decrease
// across sweeps.
func TestObjectiveMonotone(t *testing.T) {
	o := solveOpts()
	o.MaxIters = 12
	res, err := Solve(testTensor(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) != 12 {
		t.Fatalf("%d fits, want 12", len(res.Fits))
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1] {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.Fits[i-1], res.Fits[i])
		}
	}
	// On nonnegative data the constrained solve should land within a few
	// percent of unconstrained ALS from the same start.
	als, err := cpals.Solve(testTensor(), cpals.Options{Rank: 3, MaxIters: 12, Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.9*als.Fit() {
		t.Fatalf("ncp fit %v below 0.9x the ALS fit %v", res.Fit(), als.Fit())
	}
}

// A fixed seed must be bitwise repeatable run to run.
func TestBitwiseRepeatable(t *testing.T) {
	x := testTensor()
	a, err := Solve(x, solveOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(x, solveOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, a, b)
}

// Results must be bitwise identical for every Parallelism value: rows are
// independent and all reductions run in fixed block order.
func TestParallelismInvariant(t *testing.T) {
	x := testTensor()
	base, err := Solve(x, solveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		o := solveOpts()
		o.Parallelism = w
		got, err := Solve(x, o)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, base, got)
	}
}

// A checkpointed run resumed mid-solve must follow the original trajectory
// bitwise: (lambda, factors, inner pass count) fully determine the rest.
func TestResumeBitwise(t *testing.T) {
	x := testTensor()
	full := solveOpts()
	full.MaxIters = 8
	want, err := Solve(x, full)
	if err != nil {
		t.Fatal(err)
	}

	var saved *ckpt.File
	head := full
	head.MaxIters = 4
	head.CheckpointEvery = 4
	head.OnCheckpoint = func(cp *ckpt.File) error {
		saved = cp
		return nil
	}
	if _, err := Solve(x, head); err != nil {
		t.Fatal(err)
	}
	var savedIter int
	var savedState *ckpt.NTFState
	if saved != nil {
		savedIter, savedState = saved.Iter, saved.NTF
	}
	if savedIter != 4 || savedState == nil {
		t.Fatalf("checkpoint did not fire at iteration 4 (iter=%d)", savedIter)
	}

	tail := full
	tail.Restore(saved)
	tail.InitState = savedState
	got, err := Solve(x, tail)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, want, got)
}

func requireBitwise(t *testing.T, a, b *cpals.Result) {
	t.Helper()
	if len(a.Lambda) != len(b.Lambda) {
		t.Fatalf("lambda lengths differ")
	}
	for r := range a.Lambda {
		if math.Float64bits(a.Lambda[r]) != math.Float64bits(b.Lambda[r]) {
			t.Fatalf("lambda[%d] differs: %v vs %v", r, a.Lambda[r], b.Lambda[r])
		}
	}
	if len(a.Fits) != len(b.Fits) {
		t.Fatalf("fit counts differ: %d vs %d", len(a.Fits), len(b.Fits))
	}
	for i := range a.Fits {
		if math.Float64bits(a.Fits[i]) != math.Float64bits(b.Fits[i]) {
			t.Fatalf("fit[%d] differs: %v vs %v", i, a.Fits[i], b.Fits[i])
		}
	}
	for n := range a.Factors {
		fa, fb := a.Factors[n], b.Factors[n]
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(fb.Data[i]) {
				t.Fatalf("factor %d element %d differs: %v vs %v", n, i, fa.Data[i], fb.Data[i])
			}
		}
	}
}
