package serve

import (
	"context"
	"testing"

	"cstf/internal/rng"
)

// The exclude-set contract: exclusion behaves identically on every serving
// path. The exact blocked scan, the norm-pruned approximate scan (with a
// budget covering the mode), and a sharded scatter-gather merged with
// MergeTopK must all return the same ranking for the same exclude set —
// and the result cache must never serve one exclude set's ranking to a
// query with a different one.

func requireSameScored(t *testing.T, want, got []Scored, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestNormalizeExclude(t *testing.T) {
	if normalizeExclude(nil) != nil || normalizeExclude([]int{}) != nil {
		t.Fatal("empty exclude did not normalize to nil")
	}
	in := []int{7, 3, 7, 1, 3}
	got := normalizeExclude(in)
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("normalized %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalized %v, want %v", got, want)
		}
	}
	if in[0] != 7 || in[1] != 3 {
		t.Fatal("normalizeExclude mutated its input")
	}
	if excludeKey(got) != "1,3,7" {
		t.Fatalf("excludeKey = %q, want %q", excludeKey(got), "1,3,7")
	}
	if excludeKey(nil) != "" {
		t.Fatal("empty set has a non-empty key")
	}
	for _, i := range want {
		if !excluded(got, i) {
			t.Fatalf("excluded(%v, %d) = false", got, i)
		}
	}
	for _, i := range []int{0, 2, 4, 8, -1} {
		if excluded(got, i) {
			t.Fatalf("excluded(%v, %d) = true", got, i)
		}
	}
}

// Excluded rows never appear, and the remaining ranking equals the
// unexcluded ranking with those rows deleted (every survivor keeps its
// score, order preserved).
func TestModelTopKExcludeDropsRows(t *testing.T) {
	m := randModel(t, 3, 4, 80, 50, 30)
	full, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, 7}}, K: 80})
	if err != nil {
		t.Fatal(err)
	}
	ex := []int{full[0].Index, full[2].Index, full[5].Index}
	got, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, 7}}, K: 80, Exclude: ex})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full)-len(ex) {
		t.Fatalf("%d results after excluding %d of %d", len(got), len(ex), len(full))
	}
	want := full[:0:0]
	for _, s := range full {
		if !excluded(normalizeExclude(ex), s.Index) {
			want = append(want, s)
		}
	}
	requireSameScored(t, want, got, "exclude-filtered full ranking")
}

// Exact scan, approximate scan (budget >= rows, so only the exact
// Cauchy–Schwarz cutoff fires), and a 3-way range split merged with
// MergeTopK agree bitwise for the same exclude set.
func TestExcludeIdenticalAcrossPaths(t *testing.T) {
	m := randModel(t, 11, 3, 120, 40, 25)
	m.BuildApprox(0)
	g := rng.New(5)
	for trial := 0; trial < 25; trial++ {
		row, k := g.Intn(40), 1+g.Intn(12)
		var ex []int
		for len(ex) < 10 {
			ex = append(ex, g.Intn(120))
		}
		exact, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Exclude: ex})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Exclude: ex, Budget: 200})
		if err != nil {
			t.Fatal(err)
		}
		requireSameScored(t, exact, approx, "approx (full budget)")
		var partials [][]Scored
		for _, r := range [][2]int{{0, 41}, {41, 87}, {87, 120}} {
			p, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Range: &Range{r[0], r[1]}, Exclude: ex})
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
		}
		requireSameScored(t, exact, MergeTopK(k, partials...), "sharded merge")
	}
}

// Conditioning on several coordinates drops the marginalization of every
// fixed mode — spot-checked against the definition — and a query that
// conditions on the queried mode, fixes one mode twice or fixes nothing
// fails.
func TestTopKMultiCond(t *testing.T) {
	m := randModel(t, 17, 3, 60, 30, 20)
	res, err := m.Rank(Query{Mode: 0, Given: []Cond{{Mode: 1, Row: 5}, {Mode: 2, Row: 3}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		var score float64
		for r := 0; r < m.Components; r++ {
			score += m.lambda[r] * m.factors[0].At(s.Index, r) * m.factors[1].At(5, r) * m.factors[2].At(3, r)
		}
		if diff := score - s.Score; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("multi-coordinate score %v, definition %v", s.Score, score)
		}
	}
	for name, given := range map[string][]Cond{
		"conditioning on the queried mode": {{Mode: 0, Row: 1}},
		"fixing one mode twice":            {{Mode: 1, Row: 1}, {Mode: 1, Row: 2}},
		"empty conditioning":               nil,
	} {
		if _, err := m.Rank(Query{Mode: 0, Given: given, K: 5}); err == nil {
			t.Errorf("%s did not fail", name)
		}
	}
}

// The server path: exclusion flows through the batching executor on both
// the exact and approximate configurations, and the result cache keys by
// the exclude set — two queries differing only in exclusions never share
// an entry, while a repeat of the same set hits.
func TestServerTopKExcludeAndCache(t *testing.T) {
	for _, approx := range []bool{false, true} {
		m := randModel(t, 23, 3, 90, 40, 20)
		s, err := New(m, Config{Approx: approx, ApproxCandidates: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()
		base, err := s.TopK(ctx, 0, 1, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		ex := []int{base[0].Index, base[1].Index}
		got, err := s.Rank(ctx, Query{Mode: 0, Given: []Cond{{1, 3}}, K: 5, Exclude: ex})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, 3}}, K: 5, Exclude: ex})
		if err != nil {
			t.Fatal(err)
		}
		requireSameScored(t, want, got, "server exclude")
		for _, s2 := range got {
			if s2.Index == ex[0] || s2.Index == ex[1] {
				t.Fatalf("excluded row %d served (approx=%v)", s2.Index, approx)
			}
		}
		// Same set, different order and duplicates: must hit the cache.
		misses := s.Stats().CacheMisses
		again, err := s.Rank(ctx, Query{Mode: 0, Given: []Cond{{1, 3}}, K: 5, Exclude: []int{ex[1], ex[0], ex[1]}})
		if err != nil {
			t.Fatal(err)
		}
		requireSameScored(t, got, again, "cached exclude repeat")
		if s.Stats().CacheMisses != misses {
			t.Fatalf("canonically equal exclude set missed the cache (approx=%v)", approx)
		}
	}
}
