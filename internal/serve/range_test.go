package serve

import (
	"testing"

	"cstf/internal/la"
	"cstf/internal/rng"
)

// tieModel builds a model whose factor rows repeat in cycles, so many rows
// share bitwise-equal TopK scores — the adversarial input for tie-break
// determinism: any scan-order or merge-order dependence shows up as a
// different ranking.
func tieModel(t *testing.T, rank, rows, cycle int) *Model {
	t.Helper()
	g := rng.New(41)
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + g.Float64()
	}
	base := la.NewDense(cycle, rank)
	for i := range base.Data {
		base.Data[i] = g.Float64()
	}
	f := la.NewDense(rows, rank)
	for i := 0; i < rows; i++ {
		copy(f.Data[i*rank:(i+1)*rank], base.Data[(i%cycle)*rank:(i%cycle+1)*rank])
	}
	other := la.NewDense(50, rank)
	for i := range other.Data {
		other.Data[i] = g.Float64()
	}
	m, err := NewModel(lambda, []*la.Dense{f, other}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Sharding a TopK across disjoint row ranges and merging the partials must
// be bitwise-identical to the single full scan — for any shard count, any
// k, and under heavy score ties. This is the invariant the fleet router's
// scatter-gather rests on.
func TestShardedTopKMergeBitwiseIdentical(t *testing.T) {
	m := tieModel(t, 3, 4000, 37) // ~108 rows per distinct score
	g := rng.New(7)
	for trial := 0; trial < 60; trial++ {
		row := g.Intn(50)
		k := 1 + g.Intn(60)
		shards := 1 + g.Intn(7)
		want, err := m.TopKGiven(0, 1, row, k)
		if err != nil {
			t.Fatal(err)
		}
		var partials [][]Scored
		rows := m.Dims[0]
		for s := 0; s < shards; s++ {
			lo, hi := s*rows/shards, (s+1)*rows/shards
			p, err := m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Range: &Range{lo, hi}})
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
		}
		got := MergeTopK(k, partials...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (row %d k %d shards %d): result %d = %+v want %+v",
					trial, row, k, shards, i, got[i], want[i])
			}
		}
	}
}

// The same invariant for Similar, whose scores are cosine-normalized and
// exclude the query row.
func TestShardedSimilarMergeBitwiseIdentical(t *testing.T) {
	m := randModel(t, 13, 4, 3000, 40)
	g := rng.New(29)
	for trial := 0; trial < 40; trial++ {
		row := g.Intn(3000)
		k := 1 + g.Intn(30)
		shards := 2 + g.Intn(4)
		want, err := m.Rank(Query{Kind: Similar, Mode: 0, Row: row, K: k})
		if err != nil {
			t.Fatal(err)
		}
		var partials [][]Scored
		rows := m.Dims[0]
		for s := 0; s < shards; s++ {
			p, err := m.Rank(Query{Kind: Similar, Mode: 0, Row: row, K: k, Range: &Range{s * rows / shards, (s + 1) * rows / shards}})
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
		}
		got := MergeTopK(k, partials...)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// Ties must be ordered by ascending row index in every returned ranking.
func TestTopKTieBreakAscendingIndex(t *testing.T) {
	m := tieModel(t, 2, 600, 5)
	res, err := m.TopKGiven(0, 1, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Fatalf("scores not descending at %d: %+v then %+v", i, res[i-1], res[i])
		}
		if res[i-1].Score == res[i].Score && res[i-1].Index >= res[i].Index {
			t.Fatalf("tie not broken by ascending index at %d: %+v then %+v", i, res[i-1], res[i])
		}
	}
}

// Range validation and the empty range: [Lo, Hi) must lie inside the
// mode with Lo <= Hi, and an empty range answers nothing.
func TestRangeValidation(t *testing.T) {
	m := randModel(t, 3, 2, 100, 20)
	q := func(lo, hi int) Query { return Query{Mode: 0, Given: []Cond{{1, 2}}, K: 5, Range: &Range{lo, hi}} }
	for name, bad := range map[string]Query{
		"negative lo":         q(-1, 50),
		"hi beyond mode":      q(0, 101),
		"inverted range":      q(60, 40),
		"range ending at 0":   q(30, 0),
		"similar, hi too big": {Kind: Similar, Mode: 0, Row: 2, K: 5, Range: &Range{10, 101}},
	} {
		if _, err := m.Rank(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, empty := range []Query{q(30, 30), q(0, 0)} {
		res, err := m.Rank(empty)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("empty range %v returned %d results", *empty.Range, len(res))
		}
	}
}
