package serve

import (
	"fmt"

	"cstf/internal/la"
)

// Kind is what a ranked query ranks by.
type Kind uint8

const (
	// TopK ranks the rows of a mode by predicted interaction with fixed
	// coordinates of other modes; modes neither ranked nor fixed are
	// marginalized.
	TopK Kind = iota
	// Similar ranks the rows of a mode by cosine similarity of factor
	// rows to one row of the same mode, leaving that row out.
	Similar
)

// Cond fixes one conditioning coordinate of a TopK query: row Row of
// mode Mode.
type Cond struct {
	Mode int
	Row  int
}

// Query is one ranked query, the value every serving layer takes:
// Model.Rank, Server.Rank, the fleet's Router.Rank, and over HTTP the
// /topk and /similar endpoints (ParseQuery). Rankings are sorted by
// descending score, rows with bitwise-equal scores by ascending row
// index. That total order is what makes a sharded ranking reassemble
// exactly: merging the rankings of disjoint row ranges with MergeTopK is
// bitwise the ranking of one full scan.
type Query struct {
	Kind Kind
	// Mode is the mode whose rows are ranked.
	Mode int
	// Given lists a TopK's fixed coordinates (at least one, each in a
	// different mode other than Mode). The query vector multiplies lambda
	// by each given row in this order, then by the column sums of every
	// remaining mode in ascending order. Similar takes none.
	Given []Cond
	// Row is Similar's query row of Mode. A TopK takes its rows from Given
	// and ignores Row.
	Row int
	// K is how many rows to return; it must be positive.
	K int
	// Range, when set, restricts the candidates to rows [Lo, Hi) of Mode —
	// the shard a fleet router asks one replica for; an empty range
	// answers nothing. Nil selects the whole mode. Scores are per-row dot
	// products, so the union of range scans is bitwise one full scan.
	Range *Range
	// Exclude lists rows of Mode a TopK drops before scoring — the
	// recommender's "already seen" filter — so the K returned are the best
	// of the rest. Order, duplicates and rows outside the mode do not
	// matter.
	Exclude []int
	// Budget, when positive, answers a whole-mode TopK from the
	// norm-ordered candidate list (Model.BuildApprox), scoring at most
	// Budget rows that are not excluded; without a built list the scan is
	// exact. Zero is the exact scan. See approx.go. Only Model.Rank takes
	// it: a Server sets it from Config.ApproxCandidates, and a Server or
	// Router refuses a query that carries its own.
	Budget int
}

// Range is a half-open span [Lo, Hi) of rows.
type Range struct{ Lo, Hi int }

// span returns q's candidate rows as a half-open span; hi is -1 for the
// whole mode.
func (q *Query) span() (lo, hi int) {
	if q.Range == nil {
		return 0, -1
	}
	return q.Range.Lo, q.Range.Hi
}

// Anchor is the coordinate a query is about: a TopK's first fixed
// coordinate, Similar's (Mode, Row). A fleet router places queries on
// replicas by it, so repeats of a query find the same cache.
func (q *Query) Anchor() Cond {
	if q.Kind == TopK && len(q.Given) > 0 {
		return q.Given[0]
	}
	return Cond{Mode: q.Mode, Row: q.Row}
}

// validate reports the first thing wrong with q against m.
func (m *Model) validate(q *Query) error {
	if err := m.checkMode(q.Mode); err != nil {
		return err
	}
	switch n := m.Dims[q.Mode]; {
	case q.K <= 0:
		return fmt.Errorf("serve: k must be positive, got %d", q.K)
	case q.Range != nil && (q.Range.Lo < 0 || q.Range.Hi > n || q.Range.Lo > q.Range.Hi):
		return fmt.Errorf("serve: range [%d,%d) invalid for mode %d with %d rows", q.Range.Lo, q.Range.Hi, q.Mode, n)
	case q.Budget < 0 || q.Budget > 0 && (q.Range != nil || q.Kind != TopK):
		return fmt.Errorf("serve: budget %d: a budget is positive and applies to whole-mode TopK only", q.Budget)
	case q.Kind == Similar && (len(q.Given) != 0 || len(q.Exclude) != 0):
		return fmt.Errorf("serve: Similar takes no given coordinates and no exclude set")
	case q.Kind == Similar:
		return m.checkRow(q.Mode, q.Row)
	case q.Kind != TopK:
		return fmt.Errorf("serve: unknown query kind %d", q.Kind)
	case len(q.Given) == 0:
		return fmt.Errorf("serve: TopK needs at least one conditioning coordinate")
	}
	for i, c := range q.Given {
		if c.Mode == q.Mode {
			return fmt.Errorf("serve: conditioning mode %d equals queried mode", c.Mode)
		}
		if err := m.checkRow(c.Mode, c.Row); err != nil {
			return err
		}
		for _, d := range q.Given[:i] {
			if d.Mode == c.Mode {
				return fmt.Errorf("serve: conditioning mode %d fixed twice", c.Mode)
			}
		}
	}
	return nil
}

// queryVec writes into v (length Components) and returns the scoring
// vector of a valid q. A TopK weighs component r by lambda_r, each given
// row's loading, and the column sums of every mode neither ranked nor
// given (uniform marginalization: a candidate's score is the model summed
// over all coordinates of the unspecified modes). Similar's vector is its
// row pre-scaled by 1/||row||, so the scan only divides by each
// candidate's norm; a zero-norm row scores zero.
func (m *Model) queryVec(v []float64, q *Query) []float64 {
	if q.Kind == Similar {
		copy(v, m.factors[q.Mode].Row(q.Row))
		if n := m.rowNorms[q.Mode][q.Row]; n > 0 {
			la.VecScale(v, 1/n)
		} else {
			clear(v)
		}
		return v
	}
	copy(v, m.lambda)
	for _, c := range q.Given {
		la.VecMulInto(v, m.factors[c.Mode].Row(c.Row))
	}
outer:
	for n := range m.factors {
		if n == q.Mode {
			continue
		}
		for _, c := range q.Given {
			if c.Mode == n {
				continue outer
			}
		}
		la.VecMulInto(v, m.colSums[n])
	}
	return v
}

// scan returns the scan of a valid q over m: its query vector (written
// into v), filters and candidate rows.
func (m *Model) scan(v []float64, q *Query, ex []int) (sq scanQuery, lo, hi int) {
	sq = scanQuery{q: m.queryVec(v, q), k: q.K, self: -1, ex: ex}
	if q.Kind == Similar {
		sq.divisors, sq.self = m.rowNorms[q.Mode], q.Row
	}
	if lo, hi = q.span(); hi < 0 {
		hi = m.Dims[q.Mode]
	}
	return sq, lo, hi
}

// Rank answers one ranked query on the calling goroutine.
func (m *Model) Rank(q Query) ([]Scored, error) {
	if err := m.validate(&q); err != nil {
		return nil, err
	}
	sq, lo, hi := m.scan(make([]float64, m.Components), &q, normalizeExclude(q.Exclude))
	if q.Budget > 0 && m.approx != nil {
		res, _ := approxTopK(m.factors[q.Mode], sq.q, q.K, sq.ex, m.approx[q.Mode], q.Budget)
		return res, nil
	}
	return topKOne(m.factors[q.Mode], sq.q, q.K, sq.divisors, sq.self, sq.ex, lo, hi), nil
}

// TopKGiven ranks the rows of mode by predicted interaction with row of
// mode given: Rank of a TopK with one fixed coordinate.
func (m *Model) TopKGiven(mode, given, row, k int) ([]Scored, error) {
	return m.Rank(Query{Mode: mode, Given: []Cond{{given, row}}, K: k})
}
