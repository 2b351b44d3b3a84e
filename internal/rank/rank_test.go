package rank

import (
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/serve"
	"cstf/internal/tensor"
)

func recsysTensor() *tensor.COO {
	return tensor.GenRecsys(13, 6000, 120, 80, 4, 3, 0.02)
}

// The split is a pure function of (seed, tensor): repeated calls agree
// exactly, train and held partition the nonzeros disjointly, every
// held-out user keeps at least one training interaction, and shuffling
// the entry order changes nothing.
func TestSplitDeterministicAndDisjoint(t *testing.T) {
	x := recsysTensor()
	train, held, err := Split(x, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	train2, held2, err := Split(x, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, train, train2, "train repeat")
	requireSameEntries(t, held, held2, "held repeat")

	if train.NNZ()+held.NNZ() != x.NNZ() {
		t.Fatalf("split sizes %d+%d != %d", train.NNZ(), held.NNZ(), x.NNZ())
	}
	coord := func(e *tensor.Entry) [3]uint32 { return [3]uint32{e.Idx[0], e.Idx[1], e.Idx[2]} }
	inTrain := make(map[[3]uint32]bool, train.NNZ())
	trainUsers := make(map[uint32]int)
	for i := range train.Entries {
		inTrain[coord(&train.Entries[i])] = true
		trainUsers[train.Entries[i].Idx[0]]++
	}
	heldUsers := make(map[uint32]bool)
	for i := range held.Entries {
		e := &held.Entries[i]
		if inTrain[coord(e)] {
			t.Fatalf("held entry %v also in train", e.Idx[:3])
		}
		if heldUsers[e.Idx[0]] {
			t.Fatalf("user %d held out twice", e.Idx[0])
		}
		heldUsers[e.Idx[0]] = true
		if trainUsers[e.Idx[0]] < 1 {
			t.Fatalf("held-out user %d has no training interactions", e.Idx[0])
		}
	}
	if len(heldUsers) == 0 {
		t.Fatal("split held out nothing")
	}

	// Entry order must not matter: reverse the entries and re-split.
	rev := tensor.New(x.Dims...)
	for i := len(x.Entries) - 1; i >= 0; i-- {
		rev.Entries = append(rev.Entries, x.Entries[i])
	}
	train3, held3, err := Split(rev, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, train, train3, "train after shuffle")
	requireSameEntries(t, held, held3, "held after shuffle")

	// A different seed carves a different split (for any non-degenerate
	// tensor this is overwhelmingly likely; equality would mean the seed
	// is ignored).
	_, heldB, err := Split(x, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sameEntries(held, heldB) {
		t.Fatal("seeds 99 and 100 carved identical splits")
	}

	if _, _, err := Split(x, 1, 5); err == nil {
		t.Fatal("out-of-range user mode did not fail")
	}
}

// A nonnegative factorization of the planted recsys tensor must recommend
// better than popularity — the structure is per-user, and popularity is
// blind to it. This is the end-to-end check that generator, solver, split,
// conditioned TopK, exclusions, and metrics compose correctly.
func TestPlantedModelBeatsPopularity(t *testing.T) {
	x := recsysTensor()
	train, held, err := Split(x, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpals.SolveWith(train, cpals.Options{Rank: 3, MaxIters: 15, Seed: 21, Parallelism: 0},
		cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: 3}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := serve.NewModel(res.Lambda, res.Factors, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := EvalModel(m, train, held, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := EvalPopularity(train, held, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if model.Cases != held.NNZ() || pop.Cases != held.NNZ() {
		t.Fatalf("cases %d/%d, want %d", model.Cases, pop.Cases, held.NNZ())
	}
	if model.HR <= pop.HR {
		t.Fatalf("model HR@10 %.3f did not beat popularity %.3f", model.HR, pop.HR)
	}
	if model.NDCG <= pop.NDCG {
		t.Fatalf("model NDCG@10 %.3f did not beat popularity %.3f", model.NDCG, pop.NDCG)
	}
	if model.HR < model.NDCG {
		t.Fatalf("HR %.3f < NDCG %.3f (impossible: gain <= 1 per hit)", model.HR, model.NDCG)
	}
}

// Metrics are deterministic: the same model and split produce bitwise the
// same numbers, including through the unconstrained solver.
func TestEvalDeterministic(t *testing.T) {
	x := recsysTensor()
	train, held, err := Split(x, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpals.Solve(train, cpals.Options{Rank: 3, MaxIters: 8, Seed: 3, Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Metrics
	for trial := 0; trial < 2; trial++ {
		m, err := serve.NewModel(append([]float64(nil), res.Lambda...), cloneFactors(res), uint64(trial+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalModel(m, train, held, 0, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != 5 {
			t.Fatalf("K=%d, want 5", got.K)
		}
		if prev != nil && (got.HR != prev.HR || got.NDCG != prev.NDCG || got.Hits != prev.Hits) {
			t.Fatalf("metrics differ across runs: %+v vs %+v", got, *prev)
		}
		prev = &got
	}
}

func cloneFactors(res *cpals.Result) (out []*la.Dense) {
	for _, f := range res.Factors {
		out = append(out, f.Clone())
	}
	return out
}

// Deterministic generator sanity: same seed, same tensor.
func TestGenRecsysDeterministic(t *testing.T) {
	a := tensor.GenRecsys(5, 1000, 40, 30, 3, 2, 0.01)
	b := tensor.GenRecsys(5, 1000, 40, 30, 3, 2, 0.01)
	requireSameEntries(t, a, b, "GenRecsys repeat")
	for i := range a.Entries {
		if a.Entries[i].Val < 0 {
			t.Fatalf("negative implicit-feedback value %v", a.Entries[i].Val)
		}
	}
	if rng.Hash64(1) == rng.Hash64(2) {
		t.Fatal("hash sanity")
	}
}

func requireSameEntries(t *testing.T, a, b *tensor.COO, label string) {
	t.Helper()
	if !sameEntries(a, b) {
		t.Fatalf("%s: tensors differ (%d vs %d entries)", label, a.NNZ(), b.NNZ())
	}
}

func sameEntries(a, b *tensor.COO) bool {
	if a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}
