// Package serve turns trained CP factors into a queryable model server —
// the inference half of the recommender workloads that motivate sparse
// tensor factorization. A trained decomposition [lambda; A_1 .. A_N] is
// loaded into an immutable Model answering three query kinds:
//
//   - Predict: reconstruct one tensor entry, sum_r lambda_r prod_n A_n(i_n, r)
//   - Rank with a TopK Query: the k best completions along one mode given
//     rows of other modes, with any remaining modes marginalized
//   - Rank with a Similar Query: the k nearest rows of a mode under cosine
//     similarity
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
	Version    uint64
	Components int // the CP rank R: lambda's length, every factor's column count
	Dims       []int
	Iter       int // completed training iterations behind this model (0 if unknown)

	lambda   []float64
	factors  []*la.Dense
	rowNorms [][]float64 // per mode: Euclidean norm of each factor row
	colSums  [][]float64 // per mode: per-component column sums
	gramEx   []*la.Dense // per mode: Hadamard product of the other modes' grams

	// approx, when built (BuildApprox), holds the per-mode norm-ordered
	// candidate lists behind a Query's Budget. Built before publishing — the
	// Model stays immutable while serving.
	approx []*approxIndex
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
		Version:    version,
		Components: rank,
		lambda:     lambda,
		factors:    factors,
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

// Factor returns the factor matrix of one mode: the live matrix, not a copy,
// and possibly shared with the decomposition the model was built from
// (cstf.Decomposition.Server), so it is read-only.
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
	for r := 0; r < m.Components; r++ {
		p := m.lambda[r]
		for n, i := range idx {
			p *= m.factors[n].At(i, r)
		}
		s += p
	}
	return s, nil
}

// DefaultGiven is the conditioning mode of a /topk request that names no
// given: the lowest-numbered mode other than the queried one. ParseQuery
// fills it in; load generators and benchmarks pick the same default.
func DefaultGiven(mode int) int {
	if mode == 0 {
		return 1
	}
	return 0
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
	a, g, rank := m.factors[mode].Row(row), m.gramEx[mode].Data, m.Components
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
