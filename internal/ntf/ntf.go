// Package ntf implements nonnegative CP decomposition (NTF) by column-wise
// coordinate descent over the same MTTKRP/gram kernels as cpals, following
// the saturating-coordinate-descent design: each mode update solves the
// nonnegative least-squares row problems
//
//	min_{u_i >= 0}  0.5 * u_i V u_i^T - u_i . m_i
//
// (V the Hadamard of the other modes' grams, m_i the row's MTTKRP result)
// by cycling the coordinates in fixed order and clipping each exact
// single-coordinate minimizer at the zero bound. Elements pinned at zero
// whose partial gradient points into the constraint are SATURATED: their
// inner-loop updates are skipped until the partial gradient sign flips at
// the next sweep's re-check, which is where implicit-feedback tensors spend
// most of their coordinates (the factors come out mostly sparse).
//
// Determinism contract: for a fixed seed the factors are bitwise identical
// across runs and across Parallelism values. Row problems are independent,
// the coordinate order inside a row is fixed, and every cross-row reduction
// (norms, grams, fits) uses the same fixed-block-order kernels as cpals, so
// no result depends on worker count or timing.
//
// Monotonicity contract: every coordinate update is the exact minimizer of
// a convex quadratic along that coordinate projected onto [0, inf), and a
// skipped (saturated) update leaves the objective unchanged, so the
// reconstruction error is non-increasing — and the reported fit
// non-decreasing — after every completed sweep.
package ntf

import (
	"fmt"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// DefaultInnerIters is the number of coordinate-descent passes each row
// problem runs per mode update when Options.InnerIters is unset. The first
// pass re-checks every coordinate (unlocking saturated elements whose
// gradient sign flipped); later passes skip saturated elements entirely.
const DefaultInnerIters = 3

// Options configures a nonnegative CP solve. The embedded cpals.Options
// mean what they mean for cpals.Solve (CSFKernel aside, which is not read);
// fits are exact and monotone non-decreasing, so Tol compares two true fits.
type Options struct {
	cpals.Options

	// InnerIters is the number of coordinate-descent passes per row problem
	// each mode update runs (<= 0 selects DefaultInnerIters). A row whose
	// pass changes nothing stops early.
	InnerIters int

	// InitState resumes from a checkpoint's NTF state (what this solver
	// writes to ckpt.File.NTF): the per-mode saturation bitmaps (row-major
	// rows x rank, 1 = pinned at the zero bound with a non-descending
	// gradient at last check) and the inner pass count, which takes the
	// place of InnerIters. Saturated elements always hold value zero, so the
	// bitmaps restore the skip set — and with it the resumed run's exact
	// work profile — without affecting the factors themselves. A resume
	// (StartIter > 0) requires it; a warm start without it rebuilds the
	// bitmaps in the first sweep's re-check pass.
	InitState *ckpt.NTFState
}

// Inner resolves the effective inner CD pass count.
func (o *Options) Inner() int {
	switch {
	case o.InitState != nil:
		return o.InitState.InnerIters
	case o.InnerIters <= 0:
		return DefaultInnerIters
	}
	return o.InnerIters
}

// Validate checks the options against a tensor.
func (o *Options) Validate(t *tensor.COO) error {
	if err := o.Options.Validate(t); err != nil {
		return err
	}
	if o.InnerIters < 0 {
		return fmt.Errorf("ntf: InnerIters must be non-negative, got %d", o.InnerIters)
	}
	if st := o.InitState; st != nil {
		if o.InitFactors == nil {
			return fmt.Errorf("ntf: InitState requires InitFactors")
		}
		if err := st.Validate(t.Dims, o.Rank); err != nil {
			return fmt.Errorf("ntf: InitState: %w", err)
		}
	} else if o.StartIter > 0 {
		return fmt.Errorf("ntf: resuming at iteration %d needs the checkpoint's saturation state (InitState)", o.StartIter)
	}
	return nil
}

// Solve runs nonnegative CP by column-wise coordinate descent. The returned
// result has the same shape and semantics as cpals.Solve's — normalized
// factors (every entry >= 0), lambda, per-iteration fits — so everything
// downstream (serving, streaming, checkpoints) consumes it unchanged.
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	if err := o.Validate(t); err != nil {
		return nil, err
	}
	w := o.Workers()
	s := &solver{
		t:      t,
		w:      w,
		inner:  o.Inner(),
		normX:  t.Norm(),
		lambda: la.VecClone(o.InitLambda),
		ws:     &cpals.Workspace{},
	}
	// The seeded init is uniform in [0.1, 1.1) — already nonnegative — so
	// ncp and cpals start from the identical point and their rankings are
	// directly comparable. Warm starts are clipped at zero: a resumed ncp
	// run never reintroduces negatives, and a foreign (e.g. cpals-trained)
	// warm start is projected onto the feasible set.
	for n := 0; n < t.Order(); n++ {
		var f *la.Dense
		if o.InitFactors != nil {
			f = o.InitFactors[n].Clone()
			clipNonneg(f, w)
		} else {
			f = cpals.InitFactor(o.Seed, n, t.Dims[n], o.Rank)
		}
		s.factors = append(s.factors, f)
		s.grams = append(s.grams, la.GramParallel(f, w))
		if o.InitState != nil {
			s.sat = append(s.sat, append([]byte(nil), o.InitState.Saturated[n]...))
		} else {
			s.sat = append(s.sat, make([]byte, t.Dims[n]*o.Rank))
		}
	}
	t.ModeIndexes(w)
	return cpals.Run(s, t.Dims, o.Options)
}

// solver is Solve's tier.
type solver struct {
	t              *tensor.COO
	w, inner       int
	normX          float64
	lambda         []float64
	factors, grams []*la.Dense
	sat            [][]byte // per-mode saturation bitmaps, rows x rank
	lastM          *la.Dense
	ws             *cpals.Workspace
}

func (s *solver) Step(n int) error {
	u := s.factors[n]
	m := cpals.MTTKRPWorkers(s.t, n, s.factors, s.w, s.ws.Out(n, u.Rows, u.Cols, s.w), s.ws)
	v := cpals.HadamardOfGramsExcept(s.grams, n)
	// Re-absorb lambda into the mode being solved: with the other factors
	// fixed, u = A_n * diag(lambda) reproduces the current model exactly,
	// so coordinate descent warm-starts from it and the objective can only
	// go down. An empty lambda (first sweep, fresh start) is an implicit
	// all-ones.
	if len(s.lambda) == u.Cols {
		la.ScaleColumnsParallel(u, s.lambda, s.w)
	}
	cdSweep(u, m, v, s.sat[n], s.inner, s.w)
	s.lambda = la.NormalizeColumnsParallel(u, s.w)
	s.grams[n] = la.GramParallel(u, s.w)
	s.lastM = m
	return nil
}

func (s *solver) Fit() (float64, bool, error) {
	last := len(s.factors) - 1
	return cpals.FitFromWorkers(s.normX, s.lastM, s.factors[last], s.lambda, s.grams, s.w), true, nil
}

func (s *solver) Lambda() []float64    { return s.lambda }
func (s *solver) Factors() []*la.Dense { return s.factors }

// Checkpoint adds the saturation bitmaps and the inner pass count.
func (s *solver) Checkpoint(cp *ckpt.File) bool {
	cp.NTF = &ckpt.NTFState{InnerIters: s.inner}
	for _, b := range s.sat {
		cp.NTF.Saturated = append(cp.NTF.Saturated, append([]byte(nil), b...))
	}
	return true
}

// cdSweep runs the coordinate-descent row solves for one mode: inner passes
// of exact single-coordinate minimization clipped at zero. Pass 0 visits
// every coordinate — re-checking saturated elements and unlocking the ones
// whose partial gradient turned negative — while later passes skip
// saturated elements without touching them. Rows are independent, so the
// block fan-out is bitwise worker-count-invariant.
func cdSweep(u, m, v *la.Dense, sat []byte, inner, workers int) {
	rank := u.Cols
	la.RowBlocksApply(workers, u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := u.Row(i)
			mrow := m.Row(i)
			srow := sat[i*rank : (i+1)*rank]
			for pass := 0; pass < inner; pass++ {
				changed := false
				for r := 0; r < rank; r++ {
					if pass > 0 && srow[r] != 0 {
						continue // saturated: skip until next sweep's re-check
					}
					d := v.Data[r*rank+r]
					if d <= 0 {
						continue // collapsed column: no curvature, leave as is
					}
					// Partial gradient of the row objective at the current
					// point: g_r = (u_i V)_r - m_ir.
					g := la.VecDot(row, v.Row(r)) - mrow[r]
					if row[r] == 0 && g >= 0 {
						srow[r] = 1 // pinned at the bound, gradient ascending
						continue
					}
					srow[r] = 0
					nv := row[r] - g/d
					if nv < 0 {
						nv = 0
					}
					if nv != row[r] {
						row[r] = nv
						changed = true
					}
				}
				if !changed {
					break
				}
			}
		}
	})
}

// SaturatedFrac reports the fraction of factor elements currently pinned at
// the zero bound — the coordinates whose inner-loop updates the solver
// skips, and a direct sparsity readout of the learned factors.
func SaturatedFrac(st *ckpt.NTFState) float64 {
	total, on := 0, 0
	for _, s := range st.Saturated {
		total += len(s)
		for _, b := range s {
			if b != 0 {
				on++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(on) / float64(total)
}

// clipNonneg projects a warm-start factor onto the nonnegative orthant.
func clipNonneg(m *la.Dense, workers int) {
	la.RowBlocksApply(workers, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for r := range row {
				if row[r] < 0 {
					row[r] = 0
				}
			}
		}
	})
}
