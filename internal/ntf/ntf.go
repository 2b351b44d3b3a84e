// Package ntf implements nonnegative CP decomposition (NTF) by column-wise
// saturating coordinate descent: the shared cpals mode update run with the
// nonnegative Rule (cpals/rule.go), which solves each row's nonnegative
// least-squares problem by clipped exact coordinate minimization and skips
// the coordinates saturated at the zero bound, where implicit-feedback
// tensors spend most of them (the factors come out mostly sparse). This
// package holds the options and the constructor.
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
	"cstf/internal/tensor"
)

// DefaultInnerIters is the number of coordinate-descent passes each row
// problem runs per mode update when Options.InnerIters is unset. The first
// pass checks every coordinate and flags the saturated ones; later passes
// of the same row problem skip them.
const DefaultInnerIters = 3

// Options configures a nonnegative CP solve. The embedded cpals.Options
// mean what they mean for cpals.Solve; fits are exact and monotone
// non-decreasing, so Tol compares two true fits.
type Options struct {
	cpals.Options

	// InnerIters is the number of coordinate-descent passes per row problem
	// each mode update runs (<= 0 selects DefaultInnerIters). A row whose
	// pass changes nothing stops early.
	InnerIters int

	// InitState resumes from a checkpoint's NTF state (what this solver
	// writes to ckpt.File.NTF): the inner pass count the checkpointed run
	// was configured with, which takes the place of InnerIters so the
	// resumed run follows the original trajectory. A resume (StartIter > 0)
	// requires it.
	InitState *ckpt.NTFState
}

// Update checks the options against t and returns the mode update that runs
// them: the nonnegative coordinate-descent rule, with the checkpointed inner
// pass count on a resume.
func (o *Options) Update(t *tensor.COO) (cpals.Update, error) {
	if err := o.Options.Validate(t); err != nil {
		return cpals.Update{}, err
	}
	inner := o.InnerIters
	switch st := o.InitState; {
	case inner < 0:
		return cpals.Update{}, fmt.Errorf("ntf: InnerIters must be non-negative, got %d", inner)
	case st != nil && o.InitFactors == nil:
		return cpals.Update{}, fmt.Errorf("ntf: InitState requires InitFactors")
	case st != nil:
		if err := st.Validate(); err != nil {
			return cpals.Update{}, fmt.Errorf("ntf: InitState: %w", err)
		}
		inner = st.InnerIters
	case o.StartIter > 0:
		return cpals.Update{}, fmt.Errorf("ntf: resuming at iteration %d needs the checkpoint's inner pass count (InitState)", o.StartIter)
	case inner == 0:
		inner = DefaultInnerIters
	}
	return cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: inner}}, nil
}

// Solve runs nonnegative CP: the shared cpals mode update with the
// nonnegative coordinate-descent rule. The returned result has the same
// shape and semantics as cpals.Solve's — normalized factors (every entry >=
// 0), lambda, per-iteration fits — so everything downstream (serving,
// streaming, checkpoints) consumes it unchanged. The seeded init is uniform
// in [0.1, 1.1) — already nonnegative — so ncp and cpals start from the
// identical point and their rankings are directly comparable; warm starts
// are clipped at zero.
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	u, err := o.Update(t)
	if err != nil {
		return nil, err
	}
	return cpals.SolveWith(t, o.Options, u)
}
