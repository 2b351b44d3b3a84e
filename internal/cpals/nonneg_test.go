package cpals

import (
	"math"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/tensor"
)

// The nonnegative rule's contracts (rule.go): nonnegative factors, a
// monotone objective, bitwise repeatability across runs and Parallelism
// values, and a bitwise resume.

func nonnegTensor() *tensor.COO {
	// Nonnegative low-rank structure plus noise: the workload the rule is
	// for. GenLowRank plants factors in [0.1, 1.1), so the data is >= 0.
	return tensor.GenLowRank(7, 3000, 3, 0.05, 40, 30, 20)
}

func nonnegOpts() Options {
	return Options{Rank: 3, MaxIters: 8, Seed: 11, Parallelism: 1}
}

// solveNonneg runs the shared mode update under the nonnegative rule with
// inner coordinate-descent passes per row problem.
func solveNonneg(t *tensor.COO, o Options, inner int) (*Result, error) {
	return SolveWith(t, o, Update{Rule: Rule{Nonneg: true, Inner: inner}})
}

// A warm start from an unconstrained CP-ALS model with negative entries —
// the path that clips the start onto the nonnegative orthant — at two inner
// passes, pinned bit for bit (lambda, factors and fits) at Parallelism 1
// and 4.
func TestNonnegSolveGoldenHash(t *testing.T) {
	x := tensor.GenZipf(3, 4000, 0.7, 40, 30, 20)
	signed, err := Solve(x, Options{Rank: 4, MaxIters: 4, Seed: 9})
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
	const want = "3d8366931d26d0ab"
	for _, p := range []int{1, 4} {
		o := Options{Rank: 4, MaxIters: 4, Seed: 9, Parallelism: p,
			InitFactors: signed.Factors, InitLambda: signed.Lambda}
		res, err := solveNonneg(x, o, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultHash(res, res.Fits); got != want {
			t.Errorf("Parallelism %d: hash %s, want %s", p, got, want)
		}
	}
}

// Every factor element and every lambda must come out nonnegative.
func TestNonnegFactorsNonnegative(t *testing.T) {
	res, err := solveNonneg(nonnegTensor(), nonnegOpts(), 3)
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
func TestNonnegObjectiveMonotone(t *testing.T) {
	o := nonnegOpts()
	o.MaxIters = 12
	res, err := solveNonneg(nonnegTensor(), o, 3)
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
	als, err := Solve(nonnegTensor(), Options{Rank: 3, MaxIters: 12, Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.9*als.Fit() {
		t.Fatalf("ncp fit %v below 0.9x the ALS fit %v", res.Fit(), als.Fit())
	}
}

// A fixed seed must be bitwise repeatable run to run.
func TestNonnegBitwiseRepeatable(t *testing.T) {
	x := nonnegTensor()
	a, err := solveNonneg(x, nonnegOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveNonneg(x, nonnegOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, a, b)
}

// Results must be bitwise identical for every Parallelism value: rows are
// independent and all reductions run in fixed block order.
func TestNonnegParallelismInvariant(t *testing.T) {
	x := nonnegTensor()
	base, err := solveNonneg(x, nonnegOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		o := nonnegOpts()
		o.Parallelism = w
		got, err := solveNonneg(x, o, 3)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, base, got)
	}
}

// A checkpointed run resumed mid-solve must follow the original trajectory
// bitwise: (lambda, factors, inner pass count) fully determine the rest.
func TestNonnegResumeBitwise(t *testing.T) {
	x := nonnegTensor()
	full := nonnegOpts()
	full.MaxIters = 8
	want, err := solveNonneg(x, full, 3)
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
	if _, err := solveNonneg(x, head, 3); err != nil {
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
	got, err := solveNonneg(x, tail, savedState.InnerIters)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, want, got)
}

func requireBitwise(t *testing.T, a, b *Result) {
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

// A nonnegative rule with no inner pass would leave every row as it is: an
// error, not a solve that never moves.
func TestNonnegRuleNeedsAnInnerPass(t *testing.T) {
	for _, inner := range []int{0, -1} {
		if _, err := solveNonneg(nonnegTensor(), nonnegOpts(), inner); err == nil {
			t.Errorf("Inner %d: no error", inner)
		}
	}
}
