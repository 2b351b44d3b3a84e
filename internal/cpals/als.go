package cpals

import (
	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Source is where a mode update's M = MTTKRP(X, mode n) comes from: the
// shared-memory COO kernel, the CSF trees, or a dist session's workers. The
// tensor to contract is an argument, so a sampled update hands the source a
// tensor it has not seen before.
type Source interface {
	// MTTKRP computes the mode MTTKRP of x against factors into out
	// (x.Dims[mode] x rank, zeroed by the caller).
	MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, out *la.Dense) error
	// FactorUpdated announces that factor mode is now f: after the initial
	// materialization and after every mode update.
	FactorUpdated(mode int, f *la.Dense)
}

// COOSource is the Source of the shared-memory COO kernel (MTTKRPWorkers)
// on Workers goroutines.
type COOSource struct{ Workers int }

func (s COOSource) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, out *la.Dense) error {
	MTTKRPWorkers(x, mode, factors, s.Workers, out, nil)
	return nil
}

func (COOSource) FactorUpdated(int, *la.Dense) {}

// csfSource is the Source of the CSF kernel over per-mode trees of the
// solve's own tensor, which is the only x it is handed.
type csfSource struct {
	csfs []*tensor.CSF
	w    int
}

func (s csfSource) MTTKRP(_ *tensor.COO, mode int, factors []*la.Dense, out *la.Dense) error {
	mttkrpCSFInto(s.csfs[mode], factors, s.w, out)
	return nil
}

func (csfSource) FactorUpdated(int, *la.Dense) {}

// NewCSFSource builds the CSF trees of t for a Source that is only ever
// handed t.
func NewCSFSource(t *tensor.COO, workers int) Source { return csfSource{BuildCSFs(t), workers} }

// Sampler turns exact mode updates into sampled ones (internal/rals): it
// picks the tensor each update contracts, owns the unnormalized matrices the
// rule writes, and decides the fit cadence and which checkpoints to take.
type Sampler interface {
	// Mode is called before mode n's update with the current factors and
	// grams. It returns the tensor to contract — the solve's own, or a
	// sample whose untouched rows the update leaves alone — and the matrix
	// the rule updates; factor n becomes its normalized copy.
	Mode(n int, factors, grams []*la.Dense) (x *tensor.COO, u *la.Dense)
	// Fit reports whether the iteration just completed records a fit.
	Fit() bool
	// Checkpoint adds the sampler's state to a snapshot; false declines it.
	Checkpoint(cp *ckpt.File) bool
}

// Update is what distinguishes the tiers that share Algorithm 1's one mode
// update — M from the Source, the factor rows from M and the Hadamard of the
// other modes' grams by the Rule, then normalize, refresh the gram and keep
// M for the fit: Serial (Solve), rals, ntf and dist, whose Source is the
// workers.
type Update struct {
	Source  Source  // nil: the CSF trees with Options.CSFKernel, else the COO kernel
	Rule    Rule    // the zero Rule is least squares
	Sampler Sampler // nil: every update contracts the whole tensor, in place
}

// SolveWith runs the ALS iteration of t with the mode update u; the Result
// records u.Rule. The options are the caller's to validate.
func SolveWith(t *tensor.COO, o Options, u Update) (*Result, error) {
	w := o.Workers()
	s := &als{t: t, w: w, rule: u.Rule, smp: u.Sampler, src: u.Source,
		normX: t.Norm(), lambda: la.VecClone(o.InitLambda), ws: &Workspace{}}
	switch {
	case s.src != nil:
	case o.CSFKernel:
		s.src = NewCSFSource(t, w)
	default:
		s.src = COOSource{w}
	}
	if _, csf := s.src.(csfSource); !csf {
		t.ModeIndexes(w)
	}
	for n := range t.Dims {
		var f *la.Dense
		if o.InitFactors != nil {
			f = o.InitFactors[n].Clone()
			s.rule.project(f, w)
		} else {
			f = initFactorWorkers(o.Seed, n, t.Dims[n], o.Rank, w)
		}
		s.factors = append(s.factors, f)
		s.grams = append(s.grams, la.GramParallel(f, w))
		s.src.FactorUpdated(n, f)
	}
	res, err := Run(s, t.Dims, o)
	if res != nil {
		res.Rule = u.Rule
	}
	return res, err
}

// als is the tier of SolveWith.
type als struct {
	t     *tensor.COO
	w     int
	rule  Rule
	smp   Sampler
	src   Source
	normX float64

	lambda []float64
	// factors are normalized; grams[n] is factors[n]'s gram.
	factors, grams []*la.Dense
	// lastM is the last mode's MTTKRP result, which the fit reads. The
	// MTTKRP outputs alias ws; nothing in the Result retains them.
	lastM *la.Dense
	ws    *Workspace
	// sampled records that an update of this iteration contracted a tensor
	// other than t, so the fit cannot come from lastM.
	sampled bool
}

func (s *als) Step(n int) error {
	x, u := s.t, s.factors[n]
	if s.smp != nil {
		x, u = s.smp.Mode(n, s.factors, s.grams)
	}
	m := s.ws.Out(n, u.Rows, u.Cols, s.w)
	if err := s.src.MTTKRP(x, n, s.factors, m); err != nil {
		return err
	}
	var rows *tensor.ModeIndex
	if x != s.t {
		rows = x.ModeIndex(n)
		s.sampled = true
	}
	s.rule.apply(u, m, HadamardOfGramsExcept(s.grams, n), s.lambda, rows, s.w)
	if u != s.factors[n] {
		u = u.Clone() // the sampler keeps its matrix unnormalized
	}
	s.lambda = la.NormalizeColumnsParallel(u, s.w)
	s.factors[n] = u
	s.grams[n] = la.GramParallel(u, s.w)
	s.src.FactorUpdated(n, u)
	s.lastM = m
	return nil
}

// Fit evaluates the fit by the SPLATT identity over the last MTTKRP, or by a
// pass over the nonzeros after a sampled iteration.
func (s *als) Fit() (float64, bool, error) {
	sampled := s.sampled
	s.sampled = false
	if s.smp != nil && !s.smp.Fit() {
		return 0, false, nil
	}
	if sampled {
		inner := InnerProduct(s.t, s.lambda, s.factors, s.w)
		return FitFromInner(s.normX, inner, s.lambda, s.grams), true, nil
	}
	last := len(s.factors) - 1
	return FitFromWorkers(s.normX, s.lastM, s.factors[last], s.lambda, s.grams, s.w), true, nil
}

func (s *als) Lambda() []float64    { return s.lambda }
func (s *als) Factors() []*la.Dense { return s.factors }

// Checkpoint adds the sampler's state, or declines where the sampler does,
// and a nonnegative rule's inner pass count.
func (s *als) Checkpoint(cp *ckpt.File) bool {
	if s.smp != nil && !s.smp.Checkpoint(cp) {
		return false
	}
	if s.rule.Nonneg {
		cp.NTF = &ckpt.NTFState{InnerIters: s.rule.Inner}
	}
	return true
}

// InnerProduct computes <X, X_hat> by a pass over the nonzeros, reduced in
// fixed par.SumBlocks block order (bitwise independent of the worker count):
// the exact fit's inner product when no last-mode MTTKRP of the current
// factors is at hand, as after a sampled iteration or a streamed window.
func InnerProduct(t *tensor.COO, lambda []float64, factors []*la.Dense, workers int) float64 {
	rank := len(lambda)
	order := t.Order()
	return par.SumBlocks(workers, len(t.Entries), func(lo, hi int) float64 {
		tmp := make([]float64, rank)
		var sum float64
		for p := lo; p < hi; p++ {
			e := &t.Entries[p]
			copy(tmp, lambda)
			for n := 0; n < order; n++ {
				la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
			}
			var v float64
			for r := range tmp {
				v += tmp[r]
			}
			sum += v * e.Val
		}
		return sum
	})
}
