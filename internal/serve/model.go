// Package serve turns trained CP factors into a queryable model server —
// the inference half of the recommender workloads that motivate sparse
// tensor factorization. A trained decomposition [lambda; A_1 .. A_N] is
// loaded into an immutable Model answering three query kinds:
//
//   - Predict: reconstruct one tensor entry, sum_r lambda_r prod_n A_n(i_n, r)
//   - TopK: the k best completions along one mode given a row of another
//     mode, with any remaining modes marginalized
//   - Similar: the k nearest rows of a mode under cosine similarity
//
// Server wraps a Model with the production machinery: a micro-batching
// executor that coalesces concurrent scans, a bounded LRU result cache,
// load shedding, and atomic hot reload of newer checkpoints.
package serve

import (
	"fmt"

	"cstf/internal/ckpt"
	"cstf/internal/la"
)

// Model is an immutable snapshot of a trained CP decomposition plus the
// precomputed structures the query kinds need: per-mode factor row norms
// (cosine similarity), per-mode column sums (marginalization weights), and
// per-mode Hadamard grams of the OTHER modes (predicted-slice norms).
// Immutability is what makes hot reload safe: a server swaps whole Models
// through an atomic pointer and in-flight queries keep the snapshot they
// started with.
type Model struct {
	// Version distinguishes reloaded models; caches key results by it so a
	// swap implicitly invalidates stale entries.
	Version uint64
	Rank    int
	Dims    []int
	Iter    int // completed training iterations behind this model (0 if unknown)

	lambda   []float64
	factors  []*la.Dense
	rowNorms [][]float64 // per mode: Euclidean norm of each factor row
	colSums  [][]float64 // per mode: per-component column sums
	gramEx   []*la.Dense // per mode: Hadamard product of the other modes' grams

	// approx, when built (BuildApprox), holds the per-mode norm-ordered
	// candidate lists behind TopKApprox. Built before publishing — the
	// Model stays immutable while serving.
	approx []*approxIndex
}

func errConditioningEqualsQueried(given int) error {
	return fmt.Errorf("serve: conditioning mode %d equals queried mode", given)
}

func errNonPositiveK(k int) error {
	return fmt.Errorf("serve: k must be positive, got %d", k)
}

// NewModel builds a Model from lambda and one factor matrix per mode,
// taking ownership of the slices (callers that keep mutating them must pass
// clones). workers bounds the precomputation fan-out; <= 0 selects all
// cores. Shape mismatches return an error rather than panicking, since
// checkpoints arrive from disk.
func NewModel(lambda []float64, factors []*la.Dense, version uint64, workers int) (*Model, error) {
	rank := len(lambda)
	if rank == 0 {
		return nil, fmt.Errorf("serve: empty lambda")
	}
	if len(factors) == 0 {
		return nil, fmt.Errorf("serve: no factor matrices")
	}
	m := &Model{
		Version: version,
		Rank:    rank,
		lambda:  lambda,
		factors: factors,
	}
	grams := make([]*la.Dense, len(factors))
	for n, f := range factors {
		if f == nil || f.Rows <= 0 {
			return nil, fmt.Errorf("serve: factor %d is empty", n)
		}
		if f.Cols != rank {
			return nil, fmt.Errorf("serve: factor %d has %d columns, lambda has rank %d", n, f.Cols, rank)
		}
		m.Dims = append(m.Dims, f.Rows)
		m.rowNorms = append(m.rowNorms, la.RowNormsParallel(f, workers))
		m.colSums = append(m.colSums, la.ColumnSums(f))
		grams[n] = la.GramParallel(f, workers)
	}
	for n := range factors {
		g := la.Ones(rank, rank)
		for o, other := range grams {
			if o != n {
				la.HadamardInto(g, g, other)
			}
		}
		m.gramEx = append(m.gramEx, g)
	}
	return m, nil
}

// LoadCheckpoint reads a solver checkpoint (written by cstf -checkpoint /
// Options.CheckpointPath) into a Model. The file is validated against the
// shared schema in internal/ckpt; Version is taken from the checkpointed
// iteration count (servers reassign it on reload).
func LoadCheckpoint(path string) (*Model, error) {
	cp, err := ckpt.Load(path)
	if err != nil {
		return nil, err
	}
	factors := make([]*la.Dense, len(cp.Factors))
	for n, data := range cp.Factors {
		factors[n] = la.NewDenseFrom(cp.Dims[n], cp.Rank, data)
	}
	m, err := NewModel(cp.Lambda, factors, uint64(cp.Iter), 0)
	if err != nil {
		return nil, err
	}
	m.Iter = cp.Iter
	return m, nil
}

// Order returns the number of tensor modes.
func (m *Model) Order() int { return len(m.Dims) }

// Factor returns the factor matrix of one mode (not a copy; read-only).
func (m *Model) Factor(mode int) *la.Dense { return m.factors[mode] }

// Lambda returns the component weights (not a copy; read-only).
func (m *Model) Lambda() []float64 { return m.lambda }

func (m *Model) checkMode(mode int) error {
	if mode < 0 || mode >= len(m.Dims) {
		return fmt.Errorf("serve: mode %d out of range [0,%d)", mode, len(m.Dims))
	}
	return nil
}

func (m *Model) checkRow(mode, row int) error {
	if err := m.checkMode(mode); err != nil {
		return err
	}
	if row < 0 || row >= m.Dims[mode] {
		return fmt.Errorf("serve: row %d out of range [0,%d) for mode %d", row, m.Dims[mode], mode)
	}
	return nil
}

// checkRange validates a candidate row range [lo, hi) of a mode. An empty
// range (lo == hi) is legal and yields no results.
func (m *Model) checkRange(mode, lo, hi int) error {
	if lo < 0 || hi > m.Dims[mode] || lo > hi {
		return fmt.Errorf("serve: range [%d,%d) invalid for mode %d with %d rows", lo, hi, mode, m.Dims[mode])
	}
	return nil
}

// Predict reconstructs one tensor entry: sum_r lambda_r prod_n A_n(i_n, r).
func (m *Model) Predict(idx ...int) (float64, error) {
	if len(idx) != len(m.Dims) {
		return 0, fmt.Errorf("serve: coordinate has %d indices, model order is %d", len(idx), len(m.Dims))
	}
	for n, i := range idx {
		if i < 0 || i >= m.Dims[n] {
			return 0, fmt.Errorf("serve: index %d out of range [0,%d) for mode %d", i, m.Dims[n], n)
		}
	}
	var s float64
	for r := 0; r < m.Rank; r++ {
		p := m.lambda[r]
		for n, i := range idx {
			p *= m.factors[n].At(i, r)
		}
		s += p
	}
	return s, nil
}

// queryVec writes into q (length Rank) and returns the scoring vector of
// a TopK query: component r weighs lambda_r, the given row's loading, and
// the column sums of every mode that is neither queried nor given
// (uniform marginalization — the score of candidate j equals the model
// summed over all coordinates of the unspecified modes).
func (m *Model) queryVec(q []float64, mode, given, row int) []float64 {
	copy(q, m.lambda)
	la.VecMulInto(q, m.factors[given].Row(row))
	for n := range m.factors {
		if n != mode && n != given {
			la.VecMulInto(q, m.colSums[n])
		}
	}
	return q
}

// defaultGiven picks the conditioning mode of the short-form TopK call.
func (m *Model) defaultGiven(mode int) int { return DefaultGiven(mode) }

// DefaultGiven is the conditioning mode a TopK query without an explicit
// one uses: the lowest-numbered mode other than the queried one. Exported
// so routers and load generators pick the same default as the model.
func DefaultGiven(mode int) int {
	if mode == 0 {
		return 1
	}
	return 0
}

// TopK returns the k rows of `mode` with the highest predicted interaction
// with the given row of the default conditioning mode (the lowest mode
// other than `mode`); remaining modes are marginalized.
//
// Ordering is part of the API contract: results are sorted by descending
// score, and rows with bitwise-equal scores are ordered by ascending row
// index. The tie-break is what makes a sharded ranking reassemble exactly —
// merging per-row-range partial TopKs with MergeTopK is bitwise-identical
// to the single full scan, because every scan, block merge, and
// scatter-gather merge agrees on the same total order.
func (m *Model) TopK(mode, row, k int) ([]Scored, error) {
	if err := m.checkMode(mode); err != nil {
		return nil, err
	}
	return m.TopKGiven(mode, m.defaultGiven(mode), row, k)
}

// TopKGiven is TopK with an explicit conditioning mode.
func (m *Model) TopKGiven(mode, given, row, k int) ([]Scored, error) {
	if err := m.checkMode(mode); err != nil {
		return nil, err
	}
	return m.TopKGivenRange(mode, given, row, k, 0, m.Dims[mode])
}

// TopKGivenRange is TopKGiven restricted to candidate rows in [lo, hi) of
// the queried mode — the shard primitive of the serving fleet: a router
// splits a mode's rows into ranges, asks one replica per range, and merges
// the partial rankings with MergeTopK. Because scores are pure per-row dot
// products, the union of range scans is bitwise-identical to one full scan.
func (m *Model) TopKGivenRange(mode, given, row, k, lo, hi int) ([]Scored, error) {
	return m.TopKGivenRangeExclude(mode, given, row, k, lo, hi, nil)
}

// TopKGivenRangeExclude is TopKGivenRange with an exclude set: candidate
// rows listed in exclude are dropped before scoring — the recommender's
// "already seen" filter. Exclusion happens inside the scan, so the k
// returned results are the k best among the remaining candidates (not a
// post-filtered shorter list), and because every shard of a scatter-gather
// drops the same rows, the sharded merge stays bitwise-identical to one
// full scan with the same exclude set. Out-of-range entries are ignored.
func (m *Model) TopKGivenRangeExclude(mode, given, row, k, lo, hi int, exclude []int) ([]Scored, error) {
	if err := m.checkMode(mode); err != nil {
		return nil, err
	}
	if given == mode {
		return nil, errConditioningEqualsQueried(given)
	}
	if err := m.checkRow(given, row); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, errNonPositiveK(k)
	}
	if err := m.checkRange(mode, lo, hi); err != nil {
		return nil, err
	}
	ex := normalizeExclude(exclude)
	return topKOne(m.factors[mode], m.queryVec(make([]float64, m.Rank), mode, given, row), k, nil, -1, ex, lo, hi), nil
}

// Cond fixes one conditioning coordinate of a multi-given TopK query.
type Cond struct {
	Mode int
	Row  int
}

// TopKCond returns the k best completions along mode conditioned on any
// number of fixed (mode, row) coordinates — the recommender query "items
// for this user in this context". Modes neither queried nor fixed are
// marginalized with their column sums, exactly as in TopKGiven (which is
// the single-Cond special case); exclude drops candidate rows from the
// ranking. Ordering follows the TopK contract (descending score, ascending
// index on bitwise score ties).
func (m *Model) TopKCond(mode int, given []Cond, k int, exclude []int) ([]Scored, error) {
	if err := m.checkMode(mode); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, errNonPositiveK(k)
	}
	if len(given) == 0 {
		return nil, fmt.Errorf("serve: TopKCond needs at least one conditioning coordinate")
	}
	fixed := make(map[int]bool, len(given))
	q := la.VecClone(m.lambda)
	for _, c := range given {
		if c.Mode == mode {
			return nil, errConditioningEqualsQueried(c.Mode)
		}
		if err := m.checkRow(c.Mode, c.Row); err != nil {
			return nil, err
		}
		if fixed[c.Mode] {
			return nil, fmt.Errorf("serve: conditioning mode %d fixed twice", c.Mode)
		}
		fixed[c.Mode] = true
		la.VecMulInto(q, m.factors[c.Mode].Row(c.Row))
	}
	for n := range m.factors {
		if n != mode && !fixed[n] {
			la.VecMulInto(q, m.colSums[n])
		}
	}
	ex := normalizeExclude(exclude)
	return topKOne(m.factors[mode], q, k, nil, -1, ex, 0, m.Dims[mode]), nil
}

// Similar returns the k rows of `mode` most similar to `row` under cosine
// similarity of factor rows, excluding the row itself. Zero-norm rows score
// zero against everything. Ordering follows the TopK contract (descending
// score, ascending index on ties).
func (m *Model) Similar(mode, row, k int) ([]Scored, error) {
	if err := m.checkRow(mode, row); err != nil {
		return nil, err
	}
	return m.SimilarRange(mode, row, k, 0, m.Dims[mode])
}

// SimilarRange is Similar restricted to candidate rows in [lo, hi) — the
// sharded form used by the fleet router's scatter-gather.
func (m *Model) SimilarRange(mode, row, k, lo, hi int) ([]Scored, error) {
	if err := m.checkRow(mode, row); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, errNonPositiveK(k)
	}
	if err := m.checkRange(mode, lo, hi); err != nil {
		return nil, err
	}
	q := m.similarQueryVec(make([]float64, m.Rank), mode, row)
	return topKOne(m.factors[mode], q, k, m.rowNorms[mode], row, nil, lo, hi), nil
}

// similarQueryVec writes into q (length Rank) and returns the query row
// pre-scaled by 1/||row||, so the scan only divides by each candidate's
// norm. A zero-norm query scores zero.
func (m *Model) similarQueryVec(q []float64, mode, row int) []float64 {
	copy(q, m.factors[mode].Row(row))
	if n := m.rowNorms[mode][row]; n > 0 {
		la.VecScale(q, 1/n)
	} else {
		for i := range q {
			q[i] = 0
		}
	}
	return q
}

// SliceNorm returns the Frobenius norm of the model's predicted slice for
// one row of a mode — how much total interaction mass the model assigns
// that row across ALL other coordinates. It is computed in O(R^2) from the
// precomputed Hadamard gram of the other modes:
// ||slice||^2 = w^T (hadamard_{n != mode} A_n^T A_n) w with
// w_r = lambda_r * A_mode(row, r).
func (m *Model) SliceNorm(mode, row int) (float64, error) {
	if err := m.checkRow(mode, row); err != nil {
		return 0, err
	}
	// w . (G w) in la.VecDot(w, la.MatVec(G, w))'s order, w recomputed.
	a, g, rank := m.factors[mode].Row(row), m.gramEx[mode].Data, m.Rank
	var s float64
	for r := 0; r < rank; r++ {
		var gw float64
		for j, grj := range g[r*rank : (r+1)*rank] {
			gw += grj * (m.lambda[j] * a[j])
		}
		s += (m.lambda[r] * a[r]) * gw
	}
	if s < 0 { // rounding can push a tiny norm below zero
		s = 0
	}
	return sqrt(s), nil
}

// MemoryBytes estimates the resident size of the model's float64 payload.
func (m *Model) MemoryBytes() int64 {
	var n int64
	n += int64(len(m.lambda))
	for i, f := range m.factors {
		n += int64(len(f.Data))
		n += int64(len(m.rowNorms[i]) + len(m.colSums[i]))
		n += int64(len(m.gramEx[i].Data))
	}
	return n * 8
}

// topKOne scans rows [lo, hi) of f for one query on the calling goroutine,
// with scanQuery's filters; the executor runs the same kernel in blocks.
func topKOne(f *la.Dense, q []float64, k int, divisors []float64, self int, ex []int, lo, hi int) []Scored {
	h := make(topKHeap, 0, min(k, hi-lo))
	scanRows(&h, scanQuery{q: q, k: k, divisors: divisors, self: self, ex: ex}, f, lo, hi)
	return h.sorted()
}
