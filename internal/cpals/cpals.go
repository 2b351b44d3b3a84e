// Package cpals provides the shared mathematics of CANDECOMP/PARAFAC
// alternating least squares (Algorithm 1 of the paper) and a serial
// reference implementation of MTTKRP (Algorithm 2) and CP-ALS. The
// distributed solvers in internal/core and internal/bigtensor are validated
// against this package: same deterministic initialization, same update
// order, same normalization, so their factors must agree to rounding.
package cpals

import (
	"context"
	"fmt"
	"math"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// FactorInitValue returns element (row, col) of the initial factor matrix
// for the given mode. It is a pure function of (seed, mode, row, col), so
// every node of a distributed solver — and the serial reference — can
// materialize any row without communication. Values are uniform in
// [0.1, 1.1): bounded away from zero so initial gram matrices are
// well-conditioned.
func FactorInitValue(seed uint64, mode, row, col int) float64 {
	return 0.1 + rng.UniformAt(seed, 0xFAC70, uint64(mode), uint64(row), uint64(col))
}

// InitFactor materializes the full initial factor matrix for a mode.
func InitFactor(seed uint64, mode, rows, rank int) *la.Dense {
	m := la.NewDense(rows, rank)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for r := range row {
			row[r] = FactorInitValue(seed, mode, i, r)
		}
	}
	return m
}

// MTTKRP computes the matricized-tensor times Khatri-Rao product along
// `mode` directly on COO nonzeros (Algorithm 2 generalized to N-order):
// for each nonzero, the Hadamard product of the other modes' factor rows is
// scaled by the value and accumulated into the output row. factors[mode] is
// not read. The result has dims[mode] rows.
func MTTKRP(t *tensor.COO, mode int, factors []*la.Dense) *la.Dense {
	order := t.Order()
	if len(factors) != order {
		panic("cpals: factor count != tensor order")
	}
	rank := factors[0].Cols
	out := la.NewDense(t.Dims[mode], rank)
	tmp := make([]float64, rank)
	for i := range t.Entries {
		e := &t.Entries[i]
		for r := range tmp {
			tmp[r] = e.Val
		}
		for n := 0; n < order; n++ {
			if n == mode {
				continue
			}
			la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
		}
		la.VecAdd(out.Row(int(e.Idx[mode])), tmp)
	}
	return out
}

// Result is a computed CP decomposition [lambda; A_1 ... A_N] plus
// per-iteration fit diagnostics.
type Result struct {
	Lambda  []float64   // column weights, length R
	Factors []*la.Dense // one normalized factor matrix per mode
	Fits    []float64   // model fit after each completed iteration
	Iters   int         // iterations actually run
	Rule    Rule        // the row rule the solve ran; a warm start continues with it
}

// Fit returns the final fit, or 0 if no iterations ran.
func (r *Result) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// ReconstructAt evaluates the CP model at one coordinate:
// sum_r lambda_r * prod_n A_n(idx_n, r).
func (r *Result) ReconstructAt(idx ...int) float64 {
	var s float64
	rank := len(r.Lambda)
	for c := 0; c < rank; c++ {
		p := r.Lambda[c]
		for n, i := range idx {
			p *= r.Factors[n].At(i, c)
		}
		s += p
	}
	return s
}

// Options configures a CP-ALS run. It is the one declaration of the options
// every solver tier shares: rals.Options embeds it and adds only its own
// fields, and Run reads it for every tier.
type Options struct {
	Rank     int     // R, the decomposition rank
	MaxIters int     // maximum ALS iterations
	Tol      float64 // stop when fit improves less than Tol (0 disables)
	Seed     uint64  // deterministic initialization seed

	// Parallelism is the number of worker goroutines the shared-memory
	// kernels (MTTKRP, grams, normalization, fit reductions) fan out to.
	// <= 0 selects runtime.GOMAXPROCS(0). Results are bitwise identical
	// for every value.
	Parallelism int

	// CSFKernel switches the MTTKRP from the per-nonzero COO loop to the
	// SPLATT fiber-reuse kernel over per-mode CSF trees (built once before
	// the first iteration). On tensors with fiber locality this does
	// substantially fewer vector operations. The factored arithmetic
	// evaluates each output row as a different association of the same sum,
	// so results match the COO kernel only to floating-point tolerance —
	// but remain bitwise identical across Parallelism values, and are the
	// bitwise reference for distributed runs with the CSF kernel enabled.
	// The tensor must be duplicate-free (tensor.NewCSF enforces it). Serial
	// and ncp read it; rals, whose samples have no trees, does not.
	CSFKernel bool

	// Ctx, when non-nil, is checked between ALS iterations; a cancelled
	// context aborts the solve with the context's error.
	Ctx context.Context

	// OnIteration, when non-nil, is invoked after each iteration that
	// records a fit, with the iteration number (0-based) and the fit; a true
	// return stops the solve early, keeping the factors computed so far.
	// Solvers without per-iteration fits (BigTensor) report fit 0.
	OnIteration func(iter int, fit float64) (stop bool)

	// StartIter resumes an interrupted solve: the iteration loop runs from
	// StartIter to MaxIters. A positive StartIter requires InitFactors (the
	// normalized factors saved after iteration StartIter-1) and InitLambda.
	StartIter int

	// InitFactors, when non-nil, replaces the seeded initialization with the
	// given normalized factor matrices (one per mode, cloned before use).
	// Together with InitLambda and StartIter it restores a checkpointed
	// solve: because ALS is a deterministic fixed-point iteration, resuming
	// from the saved factors follows the same trajectory as the original run.
	InitFactors []*la.Dense
	InitLambda  []float64 // column weights matching InitFactors, length Rank

	// InitFits pre-seeds Result.Fits with the per-iteration fits of the
	// already-completed iterations 0..StartIter-1, so convergence checks and
	// OnIteration indexing behave exactly as in an uninterrupted run.
	InitFits []float64

	// CheckpointEvery, when positive alongside OnCheckpoint, invokes the
	// checkpoint hook after every CheckpointEvery-th completed iteration
	// (a tier may skip one it cannot resume from, see Tier.Checkpoint).
	CheckpointEvery int

	// OnCheckpoint receives an owned snapshot of the solver after cp.Iter
	// completed iterations: Rank, Seed, Iter, Dims, Lambda, Fits, Factors,
	// and the tier's own state (ckpt.File.RALS, .NTF). Algorithm and Workers
	// are left for the hook to fill. Restore turns the file back into
	// options that resume the solve. A non-nil error aborts the solve.
	OnCheckpoint func(cp *ckpt.File) error
}

// Validate normalizes and checks the options against a tensor.
func (o *Options) Validate(t *tensor.COO) error {
	if o.Rank <= 0 {
		return fmt.Errorf("cpals: rank must be positive, got %d", o.Rank)
	}
	if o.MaxIters <= 0 {
		return fmt.Errorf("cpals: MaxIters must be positive, got %d", o.MaxIters)
	}
	if t.NNZ() == 0 {
		return fmt.Errorf("cpals: tensor has no nonzeros")
	}
	if o.StartIter < 0 {
		return fmt.Errorf("cpals: StartIter must be non-negative, got %d", o.StartIter)
	}
	if o.StartIter > 0 && o.InitFactors == nil {
		return fmt.Errorf("cpals: StartIter %d requires InitFactors", o.StartIter)
	}
	if o.InitFactors != nil {
		if len(o.InitFactors) != t.Order() {
			return fmt.Errorf("cpals: %d InitFactors for an order-%d tensor", len(o.InitFactors), t.Order())
		}
		for n, f := range o.InitFactors {
			if f == nil || f.Rows != t.Dims[n] || f.Cols != o.Rank {
				return fmt.Errorf("cpals: InitFactors[%d] must be %dx%d", n, t.Dims[n], o.Rank)
			}
		}
		if len(o.InitLambda) != o.Rank {
			return fmt.Errorf("cpals: InitLambda length %d != rank %d", len(o.InitLambda), o.Rank)
		}
	}
	return nil
}

// Workers resolves the effective worker count.
func (o *Options) Workers() int { return par.Workers(o.Parallelism) }

// Interrupted reports the context's error if Ctx is set and cancelled.
// Solvers call it between ALS iterations.
func (o *Options) Interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

// ModelNormSq returns ||X_hat||_F^2 = lambda^T (hadamard of all grams) lambda.
func ModelNormSq(lambda []float64, grams []*la.Dense) float64 {
	rank := len(lambda)
	h := la.Identity(rank)
	for i := range h.Data {
		h.Data[i] = 1
	}
	for _, g := range grams {
		la.HadamardInto(h, h, g)
	}
	return la.VecDot(lambda, la.MatVec(h, lambda))
}

// FitFromInner finishes the fit computation once <X, X_hat> is known. Every
// fit in the repository ends here, whichever pass computed the inner
// product: the last MTTKRP (FitFromWorkers), a join (core) or a
// pass over the nonzeros (rals, bigtensor, stream).
func FitFromInner(normX, inner float64, lambda []float64, grams []*la.Dense) float64 {
	modelSq := ModelNormSq(lambda, grams)
	residSq := normX*normX + modelSq - 2*inner
	if residSq < 0 {
		residSq = 0
	}
	if normX == 0 {
		return 0
	}
	return 1 - math.Sqrt(residSq)/normX
}

// HadamardOfGramsExcept returns the Hadamard product of every gram matrix
// except the one for `mode` — the V matrix of Algorithm 1 whose
// pseudo-inverse post-multiplies the MTTKRP result. grams[mode] may be nil
// (callers that skip computing the excluded gram).
func HadamardOfGramsExcept(grams []*la.Dense, mode int) *la.Dense {
	rank := grams[(mode+1)%len(grams)].Rows
	v := la.NewDense(rank, rank)
	for i := range v.Data {
		v.Data[i] = 1
	}
	for n, g := range grams {
		if n == mode {
			continue
		}
		la.HadamardInto(v, v, g)
	}
	return v
}

// Solve runs shared-memory CP-ALS (Algorithm 1 generalized to N-order
// tensors). It is the correctness reference for the distributed solvers and
// is exact CP-ALS: MTTKRP, pseudo-inverse of the gram Hadamard, column
// normalization, gram refresh, convergence on fit — the least-squares Rule
// over the COO or CSF Source, updating every factor in place. Every numeric
// stage fans out over opts.Parallelism worker goroutines with deterministic
// blocked reductions, so the factors are bitwise identical for every worker
// count.
func Solve(t *tensor.COO, opts Options) (*Result, error) {
	if err := opts.Validate(t); err != nil {
		return nil, err
	}
	return SolveWith(t, opts, Update{})
}

// initFactorWorkers fills the deterministic initial factor matrix on the
// worker pool; FactorInitValue is elementwise, so any row partitioning
// yields the identical matrix.
func initFactorWorkers(seed uint64, mode, rows, rank, workers int) *la.Dense {
	m := la.NewDense(rows, rank)
	la.RowBlocksApply(workers, rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for r := range row {
				row[r] = FactorInitValue(seed, mode, i, r)
			}
		}
	})
	return m
}
