package stream

import (
	"fmt"
	"slices"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Updater owns the resident tensor and the live CP factors, and folds delta
// windows into both. The refresh is the row-wise ALS update of CDTF/SALS
// under the rule that made the model: one warm-started iteration of the
// shared mode update (cpals.SolveWith) whose Sampler restricts each mode to
// the rows the window touched. A new nonzero only perturbs the row problems
// of the factor rows it indexes, so one window's MTTKRP work is bounded by
// the touched rows' nonzeros rather than the whole tensor. Because the
// row-set updates hold untouched rows fixed, the factors drift from the
// true ALS fixed point as windows accumulate; FullSweep (driven by
// Pipeline.FullSweepEvery) runs the same call over every row to pull them
// back.
//
// An Updater is single-threaded by design — the pipeline's consumer owns it
// — but its kernels fan out over the internal/par pool.
type Updater struct {
	t       *tensor.COO
	seed    uint64
	workers int
	rule    cpals.Rule

	lambda  []float64
	factors []*la.Dense
}

// NewUpdater wraps a resident tensor and its trained, normalized factors
// (cloned; callers keep ownership of theirs), refreshed by least squares.
// seed seeds the deterministic initialization of factor rows created when
// modes grow. parallelism <= 0 selects all cores.
func NewUpdater(t *tensor.COO, lambda []float64, factors []*la.Dense, seed uint64, parallelism int) (*Updater, error) {
	if t.NNZ() == 0 {
		return nil, fmt.Errorf("stream: resident tensor has no nonzeros")
	}
	rank := len(lambda)
	if rank == 0 {
		return nil, fmt.Errorf("stream: empty lambda")
	}
	if len(factors) != t.Order() {
		return nil, fmt.Errorf("stream: %d factors for an order-%d tensor", len(factors), t.Order())
	}
	u := &Updater{
		t:       t.Clone(),
		seed:    seed,
		workers: par.Workers(parallelism),
		lambda:  la.VecClone(lambda),
	}
	for n, f := range factors {
		if f == nil || f.Rows != t.Dims[n] || f.Cols != rank {
			return nil, fmt.Errorf("stream: factor %d must be %dx%d", n, t.Dims[n], rank)
		}
		u.factors = append(u.factors, f.Clone())
	}
	return u, nil
}

// NewUpdaterFromResult builds an Updater from a solver result over t that
// keeps refreshing the model by the rule the solver ran (res.Rule).
func NewUpdaterFromResult(t *tensor.COO, res *cpals.Result, seed uint64, parallelism int) (*Updater, error) {
	u, err := NewUpdater(t, res.Lambda, res.Factors, seed, parallelism)
	if u != nil {
		u.rule = res.Rule
	}
	return u, err
}

// Tensor returns the resident tensor (owned by the updater; read-only).
func (u *Updater) Tensor() *tensor.COO { return u.t }

// Rank returns the decomposition rank.
func (u *Updater) Rank() int { return len(u.lambda) }

// Dims returns a copy of the current mode sizes.
func (u *Updater) Dims() []int { return append([]int(nil), u.t.Dims...) }

// Lambda returns the live column weights (aliased; read-only).
func (u *Updater) Lambda() []float64 { return u.lambda }

// Factors returns the live factor matrices (aliased; read-only).
func (u *Updater) Factors() []*la.Dense { return u.factors }

// UpdateStats describes one applied delta window.
type UpdateStats struct {
	Events      int           `json:"events"`       // delta nonzeros merged
	TouchedRows int           `json:"touched_rows"` // factor rows refreshed, summed over modes
	GrownModes  int           `json:"grown_modes"`  // modes whose size increased
	NNZ         int           `json:"nnz"`          // resident nonzeros after the merge
	Duration    time.Duration `json:"-"`
	DurationMs  float64       `json:"duration_ms"`
}

// ApplyDelta merges a delta window into the resident tensor and refreshes
// the factors with one warm-started ALS iteration of the model's rule that
// solves only the touched rows of each mode. Every other row keeps its
// contribution to the model, so the model's value at a coordinate none of
// whose rows the window touched does not change. An empty delta is a
// guaranteed bitwise no-op on the factors and lambda. New indices beyond
// the current mode sizes grow the tensor and the factor matrices (fresh
// rows use the solver's deterministic seeded init before being refreshed
// like any other touched row).
func (u *Updater) ApplyDelta(delta []tensor.Entry) (UpdateStats, error) {
	start := time.Now()
	st := UpdateStats{Events: len(delta), NNZ: u.t.NNZ()}
	if len(delta) == 0 {
		return st, nil
	}
	// Touched rows per mode: the union of the delta's indices, which may
	// reach past the current mode size and grow it.
	touched := make([][]int, u.t.Order())
	for m := range touched {
		touched[m] = touchedRows(delta, m)
		st.TouchedRows += len(touched[m])
		if rows := touched[m][len(touched[m])-1] + 1; rows > u.t.Dims[m] {
			st.GrownModes++
			u.factors[m] = growFactor(u.factors[m], rows, m, u.seed)
			u.t.Dims[m] = rows
		}
	}

	// Merge the delta; duplicate coordinates keep COO sum semantics.
	u.t.Entries = append(u.t.Entries, delta...)
	u.t.InvalidateIndex()
	st.NNZ = u.t.NNZ()

	if _, err := u.solve(1, rowSet{u.t, touched}); err != nil {
		return st, fmt.Errorf("stream: window: %w", err)
	}
	st.Duration = time.Since(start)
	st.DurationMs = float64(st.Duration.Nanoseconds()) / 1e6
	return st, nil
}

// touchedRows returns the sorted unique mode-m indices of delta.
func touchedRows(delta []tensor.Entry, m int) []int {
	rows := make([]int, len(delta))
	for i := range delta {
		rows[i] = int(delta[i].Idx[m])
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// growFactor extends f to newRows rows, filling the fresh rows with the
// solver's deterministic seeded initialization (the same value any solver
// would have used for that (mode, row, col) at first training).
func growFactor(f *la.Dense, newRows, mode int, seed uint64) *la.Dense {
	g := la.NewDense(newRows, f.Cols)
	copy(g.Data, f.Data)
	for i := f.Rows; i < newRows; i++ {
		row := g.Row(i)
		for c := range row {
			row[c] = cpals.FactorInitValue(seed, mode, i, c)
		}
	}
	return g
}

// FullSweep runs `iters` warm-started iterations of the model's rule over
// the resident tensor (the drift bound), adopts the result and returns its
// exact fit.
func (u *Updater) FullSweep(iters int) (float64, error) {
	res, err := u.solve(max(iters, 1), nil)
	if err != nil {
		return 0, fmt.Errorf("stream: full sweep: %w", err)
	}
	return res.Fit(), nil
}

// solve runs iters warm-started iterations of the model's rule over the
// resident tensor, restricted by smp (nil: every row), and adopts the
// result.
func (u *Updater) solve(iters int, smp cpals.Sampler) (*cpals.Result, error) {
	res, err := cpals.SolveWith(u.t, cpals.Options{
		Rank:        len(u.lambda),
		MaxIters:    iters,
		Seed:        u.seed,
		Parallelism: u.workers,
		InitFactors: u.factors,
		InitLambda:  u.lambda,
	}, cpals.Update{Rule: u.rule, Sampler: smp})
	if err != nil {
		return nil, err
	}
	u.factors, u.lambda = res.Factors, res.Lambda
	return res, nil
}

// rowSet is the Sampler of a streamed window: each mode's update contracts
// the resident tensor t and solves the rows the window touched, rows[n].
// It records no fit and takes no checkpoint.
type rowSet struct {
	t    *tensor.COO
	rows [][]int
}

func (s rowSet) Mode(n int, factors, _ []*la.Dense) (*tensor.COO, *la.Dense, []int) {
	return s.t, factors[n], s.rows[n]
}

func (rowSet) Fit() bool                  { return false }
func (rowSet) Checkpoint(*ckpt.File) bool { return false }

// Fit computes the current model fit 1 - ||X - X̂||/||X|| over the resident
// tensor: the solvers' exact pass over the nonzeros (cpals.InnerProduct),
// no reconstruction.
func (u *Updater) Fit() float64 {
	grams := make([]*la.Dense, len(u.factors))
	for n, f := range u.factors {
		grams[n] = la.GramParallel(f, u.workers)
	}
	return cpals.FitFromInner(u.t.Norm(), cpals.InnerProduct(u.t, u.lambda, u.factors, u.workers), u.lambda, grams)
}
