package cpals

import (
	"math"
	"testing"
	"testing/quick"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

func TestFactorInitDeterministicAndBounded(t *testing.T) {
	a := InitFactor(42, 1, 50, 4)
	b := InitFactor(42, 1, 50, 4)
	if la.MaxAbsDiff(a, b) != 0 {
		t.Fatal("initialization must be deterministic")
	}
	c := InitFactor(43, 1, 50, 4)
	if la.MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds must differ")
	}
	for _, v := range a.Data {
		if v < 0.1 || v >= 1.1 {
			t.Fatalf("init value %v outside [0.1, 1.1)", v)
		}
	}
	// Element-wise consistency with FactorInitValue.
	if a.At(3, 2) != FactorInitValue(42, 1, 3, 2) {
		t.Fatal("InitFactor must agree with FactorInitValue")
	}
}

// MTTKRP against the textbook definition M = X(n) * (KhatriRao of others in
// reverse mode order), on a small dense-ish tensor.
func TestMTTKRPMatchesUnfoldedDefinition(t *testing.T) {
	x := tensor.GenUniform(3, 60, 4, 5, 6)
	rank := 3
	factors := []*la.Dense{
		InitFactor(1, 0, 4, rank),
		InitFactor(1, 1, 5, rank),
		InitFactor(1, 2, 6, rank),
	}
	for mode := 0; mode < 3; mode++ {
		got := MTTKRP(x, mode, factors)

		// Build the explicit matricization and Khatri-Rao product. With the
		// Kolda convention col = sum_{k!=mode} i_k * stride_k (stride grows
		// with k), the KR product must be (A_last (*) ... (*) A_first)
		// excluding mode.
		var kr *la.Dense
		for n := 2; n >= 0; n-- {
			if n == mode {
				continue
			}
			if kr == nil {
				kr = factors[n]
			} else {
				kr = la.KhatriRao(kr, factors[n])
			}
		}
		want := la.NewDense(x.Dims[mode], rank)
		for _, me := range x.Matricize(mode) {
			row := want.Row(int(me.Row))
			krRow := kr.Row(int(me.Col))
			la.VecAddScaled(row, me.Val, krRow)
		}
		if d := la.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d: MTTKRP differs from definition by %g", mode, d)
		}
	}
}

func TestMTTKRPFourthOrder(t *testing.T) {
	x := tensor.GenUniform(5, 80, 3, 4, 5, 6)
	rank := 2
	factors := make([]*la.Dense, 4)
	for n := 0; n < 4; n++ {
		factors[n] = InitFactor(2, n, x.Dims[n], rank)
	}
	got := MTTKRP(x, 1, factors)
	// Check one output row by brute force.
	want := la.NewDense(x.Dims[1], rank)
	for i := range x.Entries {
		e := &x.Entries[i]
		for r := 0; r < rank; r++ {
			p := e.Val
			for n := 0; n < 4; n++ {
				if n != 1 {
					p *= factors[n].At(int(e.Idx[n]), r)
				}
			}
			want.Data[int(e.Idx[1])*rank+r] += p
		}
	}
	if d := la.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("4th-order MTTKRP differs by %g", d)
	}
}

func TestHadamardOfGramsExcept(t *testing.T) {
	g0 := la.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	g1 := la.NewDenseFrom(2, 2, []float64{5, 6, 7, 8})
	g2 := la.NewDenseFrom(2, 2, []float64{9, 10, 11, 12})
	v := HadamardOfGramsExcept([]*la.Dense{g0, g1, g2}, 1)
	want := la.Hadamard(g0, g2)
	if la.MaxAbsDiff(v, want) != 0 {
		t.Fatal("wrong grams multiplied")
	}
}

func TestSolveRecoversPlantedLowRankTensor(t *testing.T) {
	x := tensor.GenLowRankDense(7, 3, 0, 20, 15, 12)
	res, err := Solve(x, Options{Rank: 3, MaxIters: 120, Seed: 99, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.999 {
		t.Fatalf("fit %v on noiseless rank-3 tensor; expected near-perfect recovery (fits: %v)",
			res.Fit(), res.Fits[:minInt(5, len(res.Fits))])
	}
	// Reconstruction must match actual entries closely.
	var worst float64
	for i := 0; i < 50; i++ {
		e := &x.Entries[i]
		got := res.ReconstructAt(int(e.Idx[0]), int(e.Idx[1]), int(e.Idx[2]))
		if d := math.Abs(got - e.Val); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Fatalf("worst pointwise reconstruction error %v", worst)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSolveFitNonDecreasingOnNoisyTensor(t *testing.T) {
	x := tensor.GenLowRank(8, 3000, 2, 0.05, 25, 25, 25)
	res, err := Solve(x, Options{Rank: 2, MaxIters: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-9 {
			t.Fatalf("fit decreased at iteration %d: %v -> %v", i, res.Fits[i-1], res.Fits[i])
		}
	}
}

func TestSolveFourthOrder(t *testing.T) {
	x := tensor.GenLowRankDense(9, 2, 0, 9, 8, 7, 6)
	res, err := Solve(x, Options{Rank: 2, MaxIters: 80, Seed: 3, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.995 {
		t.Fatalf("4th-order fit %v", res.Fit())
	}
}

func TestSolveConvergenceStopsEarly(t *testing.T) {
	x := tensor.GenLowRank(11, 2000, 2, 0, 20, 20, 20)
	res, err := Solve(x, Options{Rank: 2, MaxIters: 500, Seed: 1, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 500 {
		t.Fatal("tolerance should stop well before 500 iterations")
	}
}

func TestSolveOptionValidation(t *testing.T) {
	x := tensor.GenUniform(1, 50, 5, 5, 5)
	if _, err := Solve(x, Options{Rank: 0, MaxIters: 5}); err == nil {
		t.Fatal("rank 0 must error")
	}
	if _, err := Solve(x, Options{Rank: 2, MaxIters: 0}); err == nil {
		t.Fatal("0 iterations must error")
	}
	empty := tensor.New(3, 3, 3)
	if _, err := Solve(empty, Options{Rank: 2, MaxIters: 5}); err == nil {
		t.Fatal("empty tensor must error")
	}
}

func TestNormalizationInvariant(t *testing.T) {
	// After Solve, every factor column must have unit norm (or be zero),
	// with the magnitude carried by lambda.
	x := tensor.GenUniform(13, 800, 12, 10, 8)
	res, err := Solve(x, Options{Rank: 4, MaxIters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range res.Factors {
		for _, norm := range f.ColumnNorms() {
			if norm > 1e-12 && math.Abs(norm-1) > 1e-9 {
				t.Fatalf("mode %d column norm %v, want 1", n, norm)
			}
		}
	}
	for _, l := range res.Lambda {
		if l < 0 {
			t.Fatalf("negative lambda %v", l)
		}
	}
}

func TestModelNormSqMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rank := 2
		dims := []int{4, 3, 5}
		factors := make([]*la.Dense, 3)
		grams := make([]*la.Dense, 3)
		for n := range factors {
			factors[n] = InitFactor(seed, n, dims[n], rank)
			grams[n] = factors[n].Gram()
		}
		lambda := []float64{1.5, 0.5}
		got := ModelNormSq(lambda, grams)
		// Brute force over the full dense reconstruction.
		var want float64
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for k := 0; k < dims[2]; k++ {
					var v float64
					for r := 0; r < rank; r++ {
						v += lambda[r] * factors[0].At(i, r) * factors[1].At(j, r) * factors[2].At(k, r)
					}
					want += v * v
				}
			}
		}
		return math.Abs(got-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFitFromPerfectModel(t *testing.T) {
	// Build a tensor that IS a CP model over all coordinates; fit must be ~1
	// when evaluated with the generating factors.
	rank := 2
	dims := []int{4, 3, 5}
	factors := make([]*la.Dense, 3)
	grams := make([]*la.Dense, 3)
	for n := range factors {
		factors[n] = InitFactor(77, n, dims[n], rank)
	}
	lambda := make([]float64, rank)
	for n := range factors {
		l := factors[n].NormalizeColumns()
		for r := range lambda {
			if n == 0 {
				lambda[r] = l[r]
			} else {
				lambda[r] *= l[r]
			}
		}
		grams[n] = factors[n].Gram()
	}
	x := tensor.New(dims...)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var v float64
				for r := 0; r < rank; r++ {
					v += lambda[r] * factors[0].At(i, r) * factors[1].At(j, r) * factors[2].At(k, r)
				}
				x.Append(v, i, j, k)
			}
		}
	}
	m := MTTKRP(x, 2, factors)
	// Scale M rows as CP-ALS would have just before normalization: the
	// "last factor" here is already normalized, so M corresponds directly.
	fit := FitFrom(x.Norm(), m, factors[2], lambda, grams)
	if math.Abs(fit-1) > 1e-9 {
		t.Fatalf("fit of exact model = %v, want 1", fit)
	}
}
