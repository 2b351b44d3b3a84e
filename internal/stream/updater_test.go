package stream

import (
	"fmt"
	"math"
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

func trainedUpdater(t *testing.T, x *tensor.COO, rank, iters int, seed uint64) *Updater {
	t.Helper()
	res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdaterFromResult(x, res, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// Property: applying an empty delta window is a bitwise no-op on the
// factors, lambda, and the resident tensor.
func TestEmptyDeltaIsBitwiseNoOp(t *testing.T) {
	x := tensor.GenLowRank(21, 3000, 3, 0.05, 40, 30, 20)
	u := trainedUpdater(t, x, 3, 3, 21)

	lambdaBefore := la.VecClone(u.Lambda())
	factorsBefore := make([]*la.Dense, len(u.Factors()))
	for n, f := range u.Factors() {
		factorsBefore[n] = f.Clone()
	}
	nnzBefore := u.Tensor().NNZ()

	st, err := u.ApplyDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.TouchedRows != 0 {
		t.Fatalf("empty delta reported work: %+v", st)
	}
	for c, v := range u.Lambda() {
		if v != lambdaBefore[c] {
			t.Fatalf("lambda[%d] changed: %v -> %v", c, lambdaBefore[c], v)
		}
	}
	for n, f := range u.Factors() {
		for i, v := range f.Data {
			if v != factorsBefore[n].Data[i] {
				t.Fatalf("factor %d datum %d changed: %v -> %v", n, i, factorsBefore[n].Data[i], v)
			}
		}
	}
	if u.Tensor().NNZ() != nnzBefore {
		t.Fatalf("tensor nnz changed: %d -> %d", nnzBefore, u.Tensor().NNZ())
	}
}

// Property: a restricted update must leave UNTOUCHED rows equal to the old
// rows up to the global column rescaling of re-normalization — i.e. the
// model values they produce are unchanged wherever no touched row is
// involved... but a touched row in ANY mode changes that mode's gram and
// hence later modes' solves, so the clean invariant is the one below:
// updating with a delta improves (or at least does not catastrophically
// break) the fit, and touched rows track the data.
func TestApplyDeltaImprovesFitOnPlantedModel(t *testing.T) {
	const seed, rank = 9, 3
	dims := []int{50, 40, 30}
	// Resident: first 4000 planted entries. Delta: 1000 more from the SAME
	// planted model (exact values, no noise).
	src, err := NewSynthetic(SyntheticConfig{Seed: seed, Dims: dims, Rank: rank, Total: 5000})
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next(4000)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(dims...)
	x.Entries = append([]tensor.Entry(nil), first...)
	x.DedupSum()

	u := trainedUpdater(t, x, rank, 8, seed)
	fitBefore := u.Fit()

	delta, err := src.Next(1000)
	if err != nil {
		t.Fatal(err)
	}
	st, err := u.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedRows == 0 {
		t.Fatal("delta touched no rows")
	}
	fitAfter := u.Fit()
	// The delta is consistent with the planted model the factors already
	// fit, so the restricted refresh must keep the fit in the same
	// neighborhood (and a couple more full sweeps must push it up).
	if fitAfter < fitBefore-0.05 {
		t.Fatalf("fit collapsed after delta: %v -> %v", fitBefore, fitAfter)
	}
	fitSwept, err := u.FullSweep(2)
	if err != nil {
		t.Fatal(err)
	}
	if fitSwept < fitAfter-1e-9 && fitSwept < 0.95 {
		t.Fatalf("full sweep degraded fit: %v -> %v", fitAfter, fitSwept)
	}
}

// Property: growing deltas extend dims and factor rows, and the fresh rows
// use the solver's deterministic seeded initialization before refresh.
func TestApplyDeltaGrowsModes(t *testing.T) {
	x := tensor.GenLowRank(13, 2000, 2, 0, 20, 15, 10)
	u := trainedUpdater(t, x, 2, 3, 13)

	var e tensor.Entry
	e.Idx = [8]uint32{25, 3, 14, 0, 0, 0, 0, 0} // modes 0 and 2 beyond current dims
	e.Val = 1
	st, err := u.ApplyDelta([]tensor.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if st.GrownModes != 2 {
		t.Fatalf("grew %d modes, want 2", st.GrownModes)
	}
	dims := u.Dims()
	if dims[0] != 26 || dims[1] != 15 || dims[2] != 15 {
		t.Fatalf("dims after growth = %v, want [26 15 15]", dims)
	}
	for n, f := range u.Factors() {
		if f.Rows != dims[n] {
			t.Fatalf("factor %d has %d rows, want %d", n, f.Rows, dims[n])
		}
	}
	// Rows that exist but were never touched by data keep their seeded init
	// (up to column re-normalization): row 24 of mode 0 has no nonzeros.
	got := u.Factors()[0].Row(24)
	var want []float64
	for c := 0; c < 2; c++ {
		want = append(want, cpals.FactorInitValue(13, 0, 24, c))
	}
	// Normalization rescales columns; compare direction per column against
	// a touched row to confirm the seeded values were the starting point:
	// ratio got[c]/want[c] must equal the column's applied scale, which is
	// shared with every other untouched fresh row (row 20..23 exist too).
	other := u.Factors()[0].Row(20)
	for c := 0; c < 2; c++ {
		scale1 := got[c] / want[c]
		scale2 := other[c] / cpals.FactorInitValue(13, 0, 20, c)
		if math.Abs(scale1-scale2) > 1e-12*math.Abs(scale1) {
			t.Fatalf("fresh rows not consistently seeded: col %d scales %v vs %v", c, scale1, scale2)
		}
	}
}

// Property: a static tensor split into K streamed windows, finished with a
// full sweep, reaches a fit within tolerance of one-shot batch CP-ALS with
// the same seed on the same tensor.
func TestStreamedWindowsMatchBatchFit(t *testing.T) {
	const seed, rank, iters = 42, 3, 12
	dims := []int{60, 50, 40}
	x := tensor.GenLowRank(seed, 8000, rank, 0, dims...)

	batch, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	// Stream: train on the first quarter, then feed the rest in K windows.
	entries := append([]tensor.Entry(nil), x.Entries...)
	cut := len(entries) / 4
	x0 := tensor.New(dims...)
	x0.Entries = append([]tensor.Entry(nil), entries[:cut]...)
	u := trainedUpdater(t, x0, rank, iters, seed)

	const K = 5
	rest := entries[cut:]
	per := (len(rest) + K - 1) / K
	for w := 0; w < K; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(rest) {
			hi = len(rest)
		}
		if lo >= hi {
			break
		}
		if _, err := u.ApplyDelta(rest[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if u.Tensor().NNZ() != x.NNZ() {
		t.Fatalf("streamed tensor has %d nnz, want %d", u.Tensor().NNZ(), x.NNZ())
	}
	streamFit, err := u.FullSweep(iters)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(streamFit-batch.Fit()) > 0.02 {
		t.Fatalf("streamed fit %v vs batch fit %v: drift > 0.02", streamFit, batch.Fit())
	}
}

// Determinism: the same resident tensor, factors, and delta produce bitwise
// identical factors for every parallelism degree.
func TestApplyDeltaDeterministicAcrossWorkers(t *testing.T) {
	const seed, rank = 33, 2
	x := tensor.GenLowRank(seed, 3000, rank, 0.1, 40, 30, 20)
	delta := tensor.GenUniform(seed+1, 300, 40, 30, 20).Entries

	var ref []*la.Dense
	for _, workers := range []int{1, 2, 7} {
		res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUpdaterFromResult(x, res, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			for _, f := range u.Factors() {
				ref = append(ref, f.Clone())
			}
			continue
		}
		for n, f := range u.Factors() {
			for i, v := range f.Data {
				if v != ref[n].Data[i] {
					t.Fatalf("workers=%d: factor %d datum %d differs bitwise", workers, n, i)
				}
			}
		}
	}
}

// ncpStream trains a nonnegative model on most of a planted recommender
// tensor and returns an updater over it plus the held-back interactions,
// which include users past the trained mode size.
func ncpStream(t *testing.T, inner int) (*Updater, []tensor.Entry) {
	t.Helper()
	x := tensor.GenRecsys(11, 8000, 120, 80, 4, 4, 0.02)
	base := tensor.New(110, x.Dims[1], x.Dims[2])
	var rest []tensor.Entry
	for i, e := range x.Entries {
		if e.Idx[0] >= 110 || i%5 == 0 {
			rest = append(rest, e)
		} else {
			base.Entries = append(base.Entries, e)
		}
	}
	res, err := cpals.SolveWith(base, cpals.Options{Rank: 4, MaxIters: 10, Seed: 3},
		cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: inner}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdaterFromResult(base, res, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u, rest
}

// A nonnegative model stays nonnegative under streaming: its windows and
// full sweeps run the rule that trained it, so no factor entry or weight
// turns negative.
func TestNCPStreamStaysNonnegative(t *testing.T) {
	u, rest := ncpStream(t, 3)
	check := func(stage string) {
		t.Helper()
		for c, v := range u.Lambda() {
			if !(v >= 0) {
				t.Fatalf("%s: lambda[%d] = %v", stage, c, v)
			}
		}
		for n, f := range u.Factors() {
			negative := 0
			for _, v := range f.Data {
				if !(v >= 0) {
					negative++
				}
			}
			if negative > 0 {
				t.Fatalf("%s: factor %d has %d of %d entries below zero", stage, n, negative, len(f.Data))
			}
		}
	}
	check("trained")
	const windows = 4
	for w := 0; w < windows; w++ {
		if _, err := u.ApplyDelta(rest[len(rest)*w/windows : len(rest)*(w+1)/windows]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("window %d", w))
	}
	if _, err := u.FullSweep(2); err != nil {
		t.Fatal(err)
	}
	check("full sweep")
}

// Fixed point of a window: the model's value at a coordinate none of whose
// rows the window touches is the value it had before, whatever the rule and
// the parallelism. Untouched rows keep their contribution; only the column
// weights and the touched rows move. The delta holds part of the context
// mode only, so every mode keeps rows the window does not touch.
func TestWindowKeepsUntouchedCoordinates(t *testing.T) {
	const rank, seed = 4, 3
	x := tensor.GenRecsys(11, 6000, 80, 60, 4, 4, 0.02)
	base := tensor.New(x.Dims...)
	var delta []tensor.Entry
	for i, e := range x.Entries {
		if i%20 == 0 && e.Idx[2] < 2 {
			delta = append(delta, e)
		} else {
			base.Entries = append(base.Entries, e)
		}
	}
	touched := make([][]bool, base.Order())
	for m := range touched {
		touched[m] = make([]bool, base.Dims[m])
		for _, e := range delta {
			touched[m][e.Idx[m]] = true
		}
		free := 0
		for _, hit := range touched[m] {
			if !hit {
				free++
			}
		}
		if free == 0 {
			t.Fatalf("the delta touches every row of mode %d", m)
		}
	}
	for _, nonneg := range []bool{false, true} {
		for _, p := range []int{1, 4} {
			o := cpals.Options{Rank: rank, MaxIters: 5, Seed: seed, Parallelism: p}
			var res *cpals.Result
			var err error
			if nonneg {
				res, err = cpals.SolveWith(base, o, cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: 3}})
			} else {
				res, err = cpals.Solve(base, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUpdaterFromResult(base, res, seed, p)
			if err != nil {
				t.Fatal(err)
			}
			before := denseModel(u.Lambda(), u.Factors())
			if _, err := u.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			after := denseModel(u.Lambda(), u.Factors())
			var scale float64
			for _, v := range before {
				scale = math.Max(scale, math.Abs(v))
			}
			checked := 0
			for i := range touched[0] {
				for j := range touched[1] {
					for k := range touched[2] {
						if touched[0][i] || touched[1][j] || touched[2][k] {
							continue
						}
						p0 := (i*len(touched[1])+j)*len(touched[2]) + k
						if d := math.Abs(after[p0] - before[p0]); d > 1e-10*scale {
							t.Fatalf("nonneg=%v P=%d: value at (%d,%d,%d) moved %g -> %g", nonneg, p, i, j, k, before[p0], after[p0])
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no coordinate has all its rows untouched")
			}
		}
	}
}

// denseModel evaluates an order-3 CP model at every coordinate, row-major.
func denseModel(lambda []float64, factors []*la.Dense) []float64 {
	a, b, c := factors[0], factors[1], factors[2]
	out := make([]float64, 0, a.Rows*b.Rows*c.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			for k := 0; k < c.Rows; k++ {
				var v float64
				for r, l := range lambda {
					v += l * a.At(i, r) * b.At(j, r) * c.At(k, r)
				}
				out = append(out, v)
			}
		}
	}
	return out
}
