package stream

import (
	"fmt"
	"sort"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// Updater owns the resident tensor and the live CP factors, and folds delta
// windows into both. The refresh is the row-wise ALS update of CDTF/SALS:
// a new nonzero only perturbs the least-squares systems of the factor rows
// it indexes, so one window's work is bounded by the touched rows' nonzeros
// rather than the whole tensor. Because restricted sweeps hold untouched
// rows fixed, the factors drift from the true ALS fixed point as windows
// accumulate; FullSweep (driven by Pipeline.FullSweepEvery) runs warm-started
// exact CP-ALS over the resident tensor to pull them back.
//
// An Updater is single-threaded by design — the pipeline's consumer owns it
// — but its kernels fan out over the internal/par pool.
type Updater struct {
	t       *tensor.COO
	rank    int
	seed    uint64
	workers int

	lambda  []float64
	factors []*la.Dense

	windows  int // delta windows applied
	sweeps   int // full sweeps run (exact or sampled)
	sampling *SweepSampling
}

// SweepSampling switches FullSweep from exact warm-started CP-ALS to the
// randomized leverage-score-sampled solver (internal/rals). On a streaming
// pipeline the full sweep is the drift bound, not the model of record —
// warm-started from near-converged factors, a sampled sweep recovers almost
// all of the drift at a fraction of the exact sweep's per-iteration cost,
// which matters when FullSweepEvery is small and the resident tensor large.
// The zero value of every field selects the rals default (10% of the
// nonzeros, resample every epoch, no exact polish).
type SweepSampling struct {
	// SampleFraction draws ceil(frac*nnz) entries per mode update.
	SampleFraction float64
	// SampleCount draws a fixed number of entries per mode update
	// (overrides SampleFraction when > 0).
	SampleCount int
	// ResampleEvery redraws the sampled tensors every N iterations.
	ResampleEvery int
	// ExactFinishIters runs the last N iterations of each sweep exact.
	ExactFinishIters int
}

// SetSweepSampling installs (or, with nil, removes) sampled full sweeps.
// Sweeps stay deterministic: the sampler is seeded from the updater seed and
// the running sweep count, so a fixed event sequence yields bitwise-identical
// factors on every run and every worker count.
func (u *Updater) SetSweepSampling(s *SweepSampling) {
	if s == nil {
		u.sampling = nil
		return
	}
	cp := *s
	u.sampling = &cp
}

// NewUpdater wraps a resident tensor and its trained, normalized factors
// (cloned; callers keep ownership of theirs). seed seeds the deterministic
// initialization of factor rows created when modes grow. parallelism <= 0
// selects all cores.
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
		rank:    rank,
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

// NewUpdaterFromResult builds an Updater from a solver result over t.
func NewUpdaterFromResult(t *tensor.COO, res *cpals.Result, seed uint64, parallelism int) (*Updater, error) {
	return NewUpdater(t, res.Lambda, res.Factors, seed, parallelism)
}

// Tensor returns the resident tensor (owned by the updater; read-only).
func (u *Updater) Tensor() *tensor.COO { return u.t }

// Rank returns the decomposition rank.
func (u *Updater) Rank() int { return u.rank }

// Dims returns a copy of the current mode sizes.
func (u *Updater) Dims() []int { return append([]int(nil), u.t.Dims...) }

// Lambda returns the live column weights (aliased; read-only).
func (u *Updater) Lambda() []float64 { return u.lambda }

// Factors returns the live factor matrices (aliased; read-only).
func (u *Updater) Factors() []*la.Dense { return u.factors }

// Windows returns how many delta windows have been applied.
func (u *Updater) Windows() int { return u.windows }

// ReconstructAt evaluates the live CP model at one coordinate.
func (u *Updater) ReconstructAt(idx ...int) float64 {
	var s float64
	for c := 0; c < u.rank; c++ {
		p := u.lambda[c]
		for n, i := range idx {
			p *= u.factors[n].At(i, c)
		}
		s += p
	}
	return s
}

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
// the factors with one ALS sweep restricted to the touched rows. An empty
// delta is a guaranteed bitwise no-op on the factors and lambda. New
// indices beyond the current mode sizes grow the tensor and the factor
// matrices (fresh rows use the solver's deterministic seeded init before
// being refreshed like any other touched row).
func (u *Updater) ApplyDelta(delta []tensor.Entry) (UpdateStats, error) {
	start := time.Now()
	st := UpdateStats{Events: len(delta), NNZ: u.t.NNZ()}
	if len(delta) == 0 {
		return st, nil
	}
	order := u.t.Order()

	// Pass 1: destination sizes. Entries may index past the current dims.
	newDims := append([]int(nil), u.t.Dims...)
	for i := range delta {
		for m := 0; m < order; m++ {
			if idx := int(delta[i].Idx[m]); idx >= newDims[m] {
				newDims[m] = idx + 1
			}
		}
	}
	for m := 0; m < order; m++ {
		if newDims[m] > u.t.Dims[m] {
			st.GrownModes++
			u.factors[m] = growFactor(u.factors[m], newDims[m], m, u.seed)
			u.t.Dims[m] = newDims[m]
		}
	}

	// Merge the delta; duplicate coordinates keep COO sum semantics.
	u.t.Entries = append(u.t.Entries, delta...)
	u.t.InvalidateIndex()
	st.NNZ = u.t.NNZ()

	// Touched rows per mode: the union of the delta's indices.
	touched := make([][]int, order)
	for m := 0; m < order; m++ {
		touched[m] = touchedRows(delta, m)
		st.TouchedRows += len(touched[m])
	}

	u.restrictedSweep(touched)
	u.windows++
	st.Duration = time.Since(start)
	st.DurationMs = float64(st.Duration.Nanoseconds()) / 1e6
	return st, nil
}

// touchedRows returns the sorted unique mode-m indices of delta.
func touchedRows(delta []tensor.Entry, m int) []int {
	rows := make([]int, 0, len(delta))
	for i := range delta {
		rows = append(rows, int(delta[i].Idx[m]))
	}
	sort.Ints(rows)
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// restrictedSweep runs one ALS sweep updating only the touched rows of each
// mode. Column weights are first absorbed into the last mode so every row
// update solves the same normal equations as a full ALS mode update; after
// the sweep all columns are re-normalized and lambda restored as the
// product of the per-mode norms (an equivalent normalized representation of
// the same model).
func (u *Updater) restrictedSweep(touched [][]int) {
	order := u.t.Order()
	w := u.workers

	// Absorb lambda into the last mode: scale column c by lambda_c.
	la.ScaleColumnsParallel(u.factors[order-1], u.lambda, w)

	grams := make([]*la.Dense, order)
	for n := 0; n < order; n++ {
		grams[n] = la.GramParallel(u.factors[n], w)
	}

	for n := 0; n < order; n++ {
		rows := touched[n]
		if len(rows) == 0 {
			continue
		}
		v := cpals.HadamardOfGramsExcept(grams, n)
		pinv := la.Pinv(v)
		mi := u.t.ModeIndex(n)
		f := u.factors[n]
		// Each touched row owns a disjoint output row and reads only OTHER
		// modes' factors, so rows update in parallel without conflicts; the
		// per-row entry order comes from the stable mode index, making the
		// result independent of the worker count.
		par.ForBlocks(w, len(rows), func(lo, hi int) {
			acc := la.NewDense(1, u.rank)
			for k := lo; k < hi; k++ {
				i := rows[k]
				acc.Zero()
				cpals.MTTKRPAccumulate(acc, i, u.t.Entries, mi.Perm[mi.RowPtr[i]:mi.RowPtr[i+1]], n, u.factors)
				la.VecMatInto(f.Row(i), acc.Data, pinv)
			}
		})
		grams[n] = la.GramParallel(f, w)
	}

	// Re-normalize: unit columns everywhere, weights in lambda.
	for c := range u.lambda {
		u.lambda[c] = 1
	}
	for n := 0; n < order; n++ {
		norms := la.NormalizeColumnsParallel(u.factors[n], w)
		for c := range u.lambda {
			u.lambda[c] *= norms[c]
		}
	}
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

// FullSweep runs `iters` warm-started iterations over the resident tensor
// (the drift bound) and adopts the result. The sweep is exact CP-ALS unless
// SetSweepSampling switched it to the sampled solver; either way the
// returned fit is the exact fit over the resident tensor.
func (u *Updater) FullSweep(iters int) (float64, error) {
	if iters <= 0 {
		iters = 1
	}
	u.sweeps++
	if s := u.sampling; s != nil {
		frac, count := s.SampleFraction, s.SampleCount
		if frac == 0 && count == 0 {
			frac = 0.1
		}
		// Each sweep gets its own sampler stream: rals keys draws by
		// (seed, epoch, mode), and every sweep restarts at epoch 0, so an
		// unmixed seed would replay one sweep's sample pattern forever.
		res, err := rals.Solve(u.t, rals.Options{
			Options: cpals.Options{
				Rank:        u.rank,
				MaxIters:    iters,
				Seed:        u.seed ^ (uint64(u.sweeps) * 0x9E3779B97F4A7C15),
				Parallelism: u.workers,
				InitFactors: u.factors,
				InitLambda:  u.lambda,
			},
			SampleFraction:   frac,
			SampleCount:      count,
			ResampleEvery:    s.ResampleEvery,
			ExactFinishIters: s.ExactFinishIters,
			FinalFitOnly:     true,
		})
		if err != nil {
			return 0, fmt.Errorf("stream: sampled sweep: %w", err)
		}
		u.factors = res.Factors
		u.lambda = res.Lambda
		return res.Fit(), nil
	}
	res, err := cpals.Solve(u.t, cpals.Options{
		Rank:        u.rank,
		MaxIters:    iters,
		Seed:        u.seed,
		Parallelism: u.workers,
		InitFactors: u.factors,
		InitLambda:  u.lambda,
	})
	if err != nil {
		return 0, fmt.Errorf("stream: full sweep: %w", err)
	}
	u.factors = res.Factors
	u.lambda = res.Lambda
	return res.Fit(), nil
}

// Fit computes the current model fit 1 - ||X - X̂||/||X|| over the resident
// tensor, via the inner-product identity (one deterministic blocked pass
// over the nonzeros, no reconstruction).
func (u *Updater) Fit() float64 {
	normX := u.t.Norm()
	if normX == 0 {
		return 0
	}
	order := u.t.Order()
	inner := par.SumBlocks(u.workers, u.t.NNZ(), func(lo, hi int) float64 {
		tmp := make([]float64, u.rank)
		var s float64
		for i := lo; i < hi; i++ {
			e := &u.t.Entries[i]
			copy(tmp, u.lambda)
			for n := 0; n < order; n++ {
				la.VecMulInto(tmp, u.factors[n].Row(int(e.Idx[n])))
			}
			for _, v := range tmp {
				s += v * e.Val
			}
		}
		return s
	})
	grams := make([]*la.Dense, order)
	for n := 0; n < order; n++ {
		grams[n] = la.GramParallel(u.factors[n], u.workers)
	}
	return cpals.FitFromInner(normX, inner, u.lambda, grams)
}
