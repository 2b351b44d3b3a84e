package rals

import (
	"math"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

func testTensor() *tensor.COO {
	return tensor.GenBlockSparse(7, 4000, 3, 5, 0.02, 60, 50, 40)
}

func bitwiseResults(t *testing.T, a, b *cpals.Result, label string) {
	t.Helper()
	if len(a.Lambda) != len(b.Lambda) {
		t.Fatalf("%s: lambda lengths %d vs %d", label, len(a.Lambda), len(b.Lambda))
	}
	for r := range a.Lambda {
		if math.Float64bits(a.Lambda[r]) != math.Float64bits(b.Lambda[r]) {
			t.Fatalf("%s: lambda[%d] %v != %v", label, r, a.Lambda[r], b.Lambda[r])
		}
	}
	if len(a.Fits) != len(b.Fits) {
		t.Fatalf("%s: fit counts %d vs %d", label, len(a.Fits), len(b.Fits))
	}
	for i := range a.Fits {
		if math.Float64bits(a.Fits[i]) != math.Float64bits(b.Fits[i]) {
			t.Fatalf("%s: fit[%d] %v != %v", label, i, a.Fits[i], b.Fits[i])
		}
	}
	if len(a.Factors) != len(b.Factors) {
		t.Fatalf("%s: factor counts differ", label)
	}
	for n := range a.Factors {
		fa, fb := a.Factors[n], b.Factors[n]
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(fb.Data[i]) {
				t.Fatalf("%s: factor %d element %d: %v != %v", label, n, i, fa.Data[i], fb.Data[i])
			}
		}
	}
}

// A sample budget covering every nonzero degenerates to exact ALS: the
// result must be bitwise identical to cpals.Solve, not merely close.
func TestFullBudgetBitwiseExact(t *testing.T) {
	tt := testTensor()
	exact, err := cpals.Solve(tt, cpals.Options{Rank: 4, MaxIters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tt, Options{Options: cpals.Options{Rank: 4, MaxIters: 8, Seed: 3}, SampleCount: tt.NNZ()})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseResults(t, exact, got, "full budget vs cpals")
	if math.Abs(exact.Fit()-got.Fit()) > 1e-12 {
		t.Fatalf("fits differ: %v vs %v", exact.Fit(), got.Fit())
	}
}

// A fixed seed must reproduce the sampled solve bitwise, run to run and
// across Parallelism values.
func TestFixedSeedBitwise(t *testing.T) {
	tt := testTensor()
	o := Options{Options: cpals.Options{Rank: 4, MaxIters: 10, Seed: 11}, SampleFraction: 0.25, ResampleEvery: 2}
	a, err := Solve(tt, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(tt, o)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseResults(t, a, b, "repeat run")

	o1, o4 := o, o
	o1.Parallelism, o4.Parallelism = 1, 4
	p1, err := Solve(tt, o1)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := Solve(tt, o4)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseResults(t, p1, p4, "parallelism 1 vs 4")
}

// Sampled fits are evaluated exactly and track the exact solver on a
// low-rank tensor: this pins sanity, not a tight approximation bound.
func TestSampledFitTracksExact(t *testing.T) {
	tt := testTensor()
	exact, err := cpals.Solve(tt, cpals.Options{Rank: 4, MaxIters: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tt, Options{Options: cpals.Options{Rank: 4, MaxIters: 15, Seed: 5}, SampleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit() < 0.90*exact.Fit() {
		t.Fatalf("sampled fit %v too far from exact %v", got.Fit(), exact.Fit())
	}
	if len(got.Fits) != got.Iters {
		t.Fatalf("expected one exact fit per iteration at ResampleEvery=1: %d fits, %d iters", len(got.Fits), got.Iters)
	}
}

// Resuming from a mid-solve checkpoint must follow the uninterrupted
// trajectory bitwise: the State's unnormalized factors and the epoch-pure
// sampling make the redraws identical.
func TestResumeBitwise(t *testing.T) {
	tt := testTensor()
	base := Options{Options: cpals.Options{Rank: 4, MaxIters: 12, Seed: 9}, SampleFraction: 0.3, ResampleEvery: 2}

	var saved *ckpt.File
	ck := base
	ck.CheckpointEvery = 6
	ck.OnCheckpoint = func(cp *ckpt.File) error {
		if cp.Iter != 6 {
			return nil
		}
		saved = cp
		return nil
	}
	full, err := Solve(tt, ck)
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil || saved.Iter != 6 {
		t.Fatalf("checkpoint at iteration 6 never fired")
	}

	resumed := base
	resumed.Restore(saved)
	resumed.InitState = saved.RALS
	got, err := Solve(tt, resumed)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseResults(t, full, got, "resume vs uninterrupted")
}

// FinalFitOnly computes exactly one exact fit, at the end.
func TestFinalFitOnly(t *testing.T) {
	tt := testTensor()
	got, err := Solve(tt, Options{Options: cpals.Options{Rank: 4, MaxIters: 6, Seed: 2}, SampleFraction: 0.25, FinalFitOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fits) != 1 {
		t.Fatalf("FinalFitOnly produced %d fits, want 1", len(got.Fits))
	}
	if got.Iters != 6 {
		t.Fatalf("ran %d iterations, want 6", got.Iters)
	}
}

// ExactFinishIters covering every iteration degenerates the whole solve to
// the exact kernel: bitwise cpals regardless of the (unused) sample budget.
func TestExactFinishAllItersBitwise(t *testing.T) {
	tt := testTensor()
	exact, err := cpals.Solve(tt, cpals.Options{Rank: 4, MaxIters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tt, Options{Options: cpals.Options{Rank: 4, MaxIters: 8, Seed: 3}, SampleFraction: 0.1, ExactFinishIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseResults(t, exact, got, "all-polish vs cpals")
}

// A short exact polish after sampled iterations recovers most of the gap to
// the exact fixed point.
func TestExactFinishPolish(t *testing.T) {
	tt := testTensor()
	exact, err := cpals.Solve(tt, cpals.Options{Rank: 4, MaxIters: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tt, Options{
		Options: cpals.Options{Rank: 4, MaxIters: 12, Seed: 5}, SampleFraction: 0.25, ResampleEvery: 2,
		FinalFitOnly: true, ExactFinishIters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit() < 0.95*exact.Fit() {
		t.Fatalf("polished sampled fit %v too far from exact %v", got.Fit(), exact.Fit())
	}
	if len(got.Fits) != 1 {
		t.Fatalf("FinalFitOnly produced %d fits, want 1", len(got.Fits))
	}
}

func TestValidate(t *testing.T) {
	tt := testTensor()
	cases := []struct {
		name string
		o    Options
	}{
		{"no budget", Options{Options: cpals.Options{Rank: 4, MaxIters: 5}}},
		{"both budgets", Options{Options: cpals.Options{Rank: 4, MaxIters: 5}, SampleCount: 10, SampleFraction: 0.1}},
		{"off-epoch resume", Options{Options: cpals.Options{Rank: 4, MaxIters: 5, StartIter: 3,
			InitFactors: []*la.Dense{la.NewDense(60, 4), la.NewDense(50, 4), la.NewDense(40, 4)},
			InitLambda:  make([]float64, 4)}, SampleCount: 100, ResampleEvery: 2}},
		{"bad mode counts", Options{Options: cpals.Options{Rank: 4, MaxIters: 5}, ModeSampleCounts: []int{1, 2}}},
		{"negative polish", Options{Options: cpals.Options{Rank: 4, MaxIters: 5}, SampleCount: 100, ExactFinishIters: -1}},
	}
	for _, c := range cases {
		if _, err := Solve(tt, c.o); err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
	}
}

// A warm start (InitFactors without InitState, the streaming updater's
// entry point) seeds the unnormalized factors as A*diag(lambda) and runs.
func TestWarmStart(t *testing.T) {
	tt := testTensor()
	exact, err := cpals.Solve(tt, cpals.Options{Rank: 4, MaxIters: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tt, Options{
		Options:        cpals.Options{Rank: 4, MaxIters: 3, Seed: 5, InitFactors: exact.Factors, InitLambda: exact.Lambda},
		SampleFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit() < 0.95*exact.Fit() {
		t.Fatalf("warm-started sampled sweep lost the fit: %v vs %v", got.Fit(), exact.Fit())
	}
}
