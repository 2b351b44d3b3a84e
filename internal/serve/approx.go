package serve

import (
	"sort"

	"cstf/internal/la"
	"cstf/internal/par"
)

// Approximate TopK: ranked queries stop scanning full modes.
//
// A TopK score is a dot product dot(A_mode(i,:), q), bounded by
// Cauchy–Schwarz at ||A_mode(i,:)|| * ||q||. Visiting candidate rows in
// descending row-norm order therefore yields a monotonically shrinking
// upper bound on every row not yet visited: as soon as the bound for the
// next row falls strictly below the k-th best score found so far, no
// remaining row can enter the result and the scan stops — still exact.
// Recommender factors have strongly skewed row norms (popularity), so the
// cutoff usually fires after a small prefix.
//
// On top of the exact cutoff sits the approximation: a candidate budget
// (Query.Budget) caps the scanned prefix outright. Rows beyond the budget are dropped even
// though the bound has not cleared them, which is what makes the result
// approximate — and what bounds worst-case latency on flat-norm models
// where the Cauchy–Schwarz cutoff never fires. The property tests in
// approx_test.go pin recall@K >= 0.95 under the default budget.
//
// The fallback path is the exact scan: a model with no built index
// answers a budgeted query with it, and range-restricted shard queries,
// whose scans are already 1/N of the mode, take no budget.

// approxIndex is one mode's norm-ordered candidate list.
type approxIndex struct {
	// order holds the mode's row indices sorted by descending row norm,
	// ties by ascending row index (deterministic across builds).
	order []int32
	// norms[j] is the row norm of order[j] — the scan reads them in visit
	// order, so the bound check streams sequentially instead of gathering.
	norms []float64
}

// buildApproxIndex sorts one mode's rows by descending norm. The sort is
// the build cost (O(I log I) once per reload) that each query's pruned
// scan amortizes.
func buildApproxIndex(rowNorms []float64) *approxIndex {
	n := len(rowNorms)
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		na, nb := rowNorms[ord[a]], rowNorms[ord[b]]
		if na != nb {
			return na > nb
		}
		return ord[a] < ord[b]
	})
	norms := make([]float64, n)
	for j, ri := range ord {
		norms[j] = rowNorms[ri]
	}
	return &approxIndex{order: ord, norms: norms}
}

// BuildApprox precomputes the norm-ordered candidate list for every mode.
// It must be called before the model is published to a server (Models are
// immutable once serving); Config.Approx does this on load, swap, and
// reload. workers bounds the per-mode build fan-out; <= 0 selects all
// cores.
func (m *Model) BuildApprox(workers int) {
	idx := make([]*approxIndex, len(m.factors))
	par.Run(workers, len(m.factors), func(n int) {
		idx[n] = buildApproxIndex(m.rowNorms[n])
	})
	m.approx = idx
}

// HasApprox reports whether BuildApprox has run on this model.
func (m *Model) HasApprox() bool { return m.approx != nil }

// DefaultApproxCandidates is the candidate budget Config.ApproxCandidates
// defaults to: enough to keep measured recall@K comfortably above 0.95 on
// trained factors, a small fraction of a large mode's rows.
const DefaultApproxCandidates = 2048

// approxTopK scans candidates in descending-norm order with the
// Cauchy–Schwarz cutoff and the candidate budget. ex, when non-nil, is a
// normalized exclude set: its rows are skipped without being scored and
// without consuming the budget. approxTopK returns the ranking and the
// number of rows actually scored (the pruning telemetry surfaced in
// Stats).
func approxTopK(f *la.Dense, q []float64, k int, ex []int, idx *approxIndex, budget int) ([]Scored, int) {
	qn := la.VecNorm(q)
	var h topKHeap
	c := f.Cols
	scanned := 0
	for j, ri := range idx.order {
		if len(h) >= k {
			if scanned >= budget {
				break // approximation: budget exhausted
			}
			if idx.norms[j]*qn < h[0].Score {
				break // exact: no remaining row can beat the k-th best
			}
		}
		i := int(ri)
		if excluded(ex, i) {
			continue
		}
		s := la.VecDot(f.Data[i*c:(i+1)*c], q)
		h.pushK(k, Scored{Index: i, Score: s})
		scanned++
	}
	return h.sorted(), scanned
}
