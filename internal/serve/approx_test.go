package serve

import (
	"testing"

	"cstf/internal/la"
	"cstf/internal/rng"
)

// skewedModel builds a model whose factor row norms follow the power-law
// skew of real recommender factors (popular rows carry more mass) — the
// regime the norm-pruned index is built for. Entries are kept positive,
// matching trained factors on nonnegative interaction data.
func skewedModel(t *testing.T, seed uint64, rank int, dims ...int) *Model {
	t.Helper()
	g := rng.New(seed)
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + g.Float64()
	}
	var factors []*la.Dense
	for _, d := range dims {
		f := la.NewDense(d, rank)
		z := rng.NewZipf(d, 0.9)
		// Per-row popularity scale: a Zipf draw per row, so norms decay
		// like a power law over rows (with plenty of near-ties).
		for i := 0; i < d; i++ {
			scale := 0.05 + 2.0/float64(1+z.Next(g))
			for r := 0; r < rank; r++ {
				f.Data[i*rank+r] = scale * (0.1 + g.Float64())
			}
		}
		factors = append(factors, f)
	}
	m, err := NewModel(lambda, factors, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The candidate order must be a permutation sorted by descending norm with
// ascending-index tie-breaks, identically on every build.
func TestApproxIndexDeterministicOrder(t *testing.T) {
	m := skewedModel(t, 3, 4, 800, 500)
	m.BuildApprox(1)
	again := skewedModel(t, 3, 4, 800, 500)
	again.BuildApprox(4)
	for n := range m.factors {
		idx := m.approx[n]
		seen := make(map[int32]bool, len(idx.order))
		for j, ri := range idx.order {
			if seen[ri] {
				t.Fatalf("mode %d: row %d appears twice", n, ri)
			}
			seen[ri] = true
			if j > 0 {
				prev := idx.order[j-1]
				np, nc := m.rowNorms[n][prev], m.rowNorms[n][ri]
				if np < nc || (np == nc && prev > ri) {
					t.Fatalf("mode %d: order violated at %d: (%d, %g) before (%d, %g)", n, j, prev, np, ri, nc)
				}
			}
			if idx.norms[j] != m.rowNorms[n][ri] {
				t.Fatalf("mode %d: cached norm mismatch at %d", n, j)
			}
		}
		for j := range idx.order {
			if idx.order[j] != again.approx[n].order[j] {
				t.Fatalf("mode %d: build not deterministic at %d (workers 1 vs 4)", n, j)
			}
		}
	}
}

// With the candidate cap disabled, the Cauchy–Schwarz cutoff alone must be
// EXACT: bitwise-identical results to the full scan, on both skewed and
// sign-mixed models (where the k-th best score can be negative and the
// cutoff never fires).
func TestApproxUncappedIsExact(t *testing.T) {
	for name, m := range map[string]*Model{
		"skewed": skewedModel(t, 5, 3, 2000, 300),
		"signed": randModel(t, 6, 3, 2000, 300),
	} {
		m.BuildApprox(0)
		g := rng.New(17)
		for trial := 0; trial < 40; trial++ {
			row, k := g.Intn(300), 1+g.Intn(25)
			exact, err := m.TopKGiven(0, 1, row, k)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Budget: int(^uint(0) >> 1)})
			if err != nil {
				t.Fatal(err)
			}
			if len(exact) != len(approx) {
				t.Fatalf("%s: %d results want %d", name, len(approx), len(exact))
			}
			for i := range exact {
				if exact[i] != approx[i] {
					t.Fatalf("%s row %d k %d: result %d = %+v want %+v", name, row, k, i, approx[i], exact[i])
				}
			}
		}
	}
}

// recallAt measures |approx ∩ exact| / k for one query pair.
func recallAt(exact, approx []Scored) float64 {
	if len(exact) == 0 {
		return 1
	}
	want := make(map[int]bool, len(exact))
	for _, s := range exact {
		want[s.Index] = true
	}
	hit := 0
	for _, s := range approx {
		if want[s.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// The serving guarantee: under the default candidate budget, recall@K
// averaged over many queries stays at or above 0.95 on norm-skewed models
// — while scanning far less than the full mode.
func TestApproxRecallAtLeast95(t *testing.T) {
	m := skewedModel(t, 11, 8, 20000, 400)
	m.BuildApprox(0)
	g := rng.New(23)
	const trials = 200
	var recall float64
	scanned, exact := 0, 0
	for trial := 0; trial < trials; trial++ {
		row, k := g.Intn(400), 10
		want, err := m.TopKGiven(0, 1, row, k)
		if err != nil {
			t.Fatal(err)
		}
		q := m.queryVec(make([]float64, m.Components), &Query{Mode: 0, Given: []Cond{{1, row}}, K: k})
		got, n := approxTopK(m.factors[0], q, k, nil, m.approx[0], DefaultApproxCandidates)
		recall += recallAt(want, got)
		scanned += n
		exact += m.Dims[0]
	}
	recall /= trials
	frac := float64(scanned) / float64(exact)
	t.Logf("recall@10 = %.4f, scanned %.1f%% of rows", recall, 100*frac)
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.4f below 0.95", recall)
	}
	if frac > 0.5 {
		t.Fatalf("approx scan covered %.0f%% of rows — pruning is not engaging", 100*frac)
	}
}

// The fallback contract: a model without a built index answers approx
// queries exactly via the blocked scan.
func TestApproxFallsBackWithoutIndex(t *testing.T) {
	m := randModel(t, 8, 3, 500, 60)
	got, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, 7}}, K: 12, Budget: DefaultApproxCandidates})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.TopKGiven(0, 1, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback diverged at %d: %+v want %+v", i, got[i], want[i])
		}
	}
}

// Invalid arguments surface the same errors as the exact path, and a
// budget is refused where it cannot apply.
func TestApproxValidation(t *testing.T) {
	m := randModel(t, 9, 2, 40, 30)
	m.BuildApprox(0)
	for name, q := range map[string]Query{
		"conditioning mode == queried mode": {Mode: 0, Given: []Cond{{0, 1}}, K: 5, Budget: 9},
		"out-of-range row":                  {Mode: 0, Given: []Cond{{1, 99}}, K: 5, Budget: 9},
		"k = 0":                             {Mode: 0, Given: []Cond{{1, 1}}, K: 0, Budget: 9},
		"bad mode":                          {Mode: 7, Given: []Cond{{1, 1}}, K: 5, Budget: 9},
		"negative budget":                   {Mode: 0, Given: []Cond{{1, 1}}, K: 5, Budget: -1},
		"budget on a range":                 {Mode: 0, Given: []Cond{{1, 1}}, K: 5, Range: &Range{0, 20}, Budget: 9},
		"budget on Similar":                 {Kind: Similar, Mode: 0, Row: 1, K: 5, Budget: 9},
	} {
		if _, err := m.Rank(q); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
