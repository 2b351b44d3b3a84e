// Package rals implements randomized CP-ALS with leverage-score-sampled
// MTTKRP (in the style of CP-ARLS-LEV): instead of sweeping every nonzero
// each iteration, each mode update draws a deterministic weighted sample of
// the nonzeros — weights derived from the current factors' leverage scores
// — and feeds the importance-weighted sampled MTTKRP to the exact row-solve
// path. Reported fits are always EXACT (a full pass over the tensor at
// epoch boundaries), never a sketch.
//
// Determinism contract: for a fixed seed, the factors are bitwise identical
// across runs, across Parallelism values, and across distributed worker
// counts (internal/dist runs this same solver, distributing only the
// sampled MTTKRP over row-aligned shards). Sample draws are pure functions
// of (seed, epoch, mode, draw index) via rng.UniformAt against a weight
// table computed from the epoch-start factors, so a resumed run redraws
// exactly what the uninterrupted run drew.
//
// With a sample budget >= nnz a mode update degenerates to the exact
// kernel over the full tensor, making the solve bitwise identical to
// cpals.Solve — the property tests pin this.
package rals

import (
	"fmt"
	"math"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// samplingTag namespaces the sampler's rng.UniformAt draws away from every
// other consumer of the shared hash (factor init uses 0xFAC70).
const samplingTag = 0x5A37157

// defensiveMix is the uniform fraction blended into the leverage-score
// sampling weights (defensive importance sampling): it floors every entry's
// weight at defensiveMix*mean, bounding the worst-case importance scale at
// nnz/(defensiveMix*budget) without biasing the estimator.
const defensiveMix = 0.1

// Kernel abstracts where sampled MTTKRPs run. A nil Kernel computes them
// locally; internal/dist plugs in a fleet-backed implementation that ships
// each epoch's drawn nonzeros to workers as row-aligned shards. Everything
// else — sampling, row solves, normalization, grams, exact fits — runs on
// the caller, so a Kernel only has to reproduce the MTTKRP bits (which are
// partition-independent: per output row, entries accumulate in the sampled
// tensor's stable mode-index order).
type Kernel interface {
	// Epoch announces a new epoch's sampled tensors, indexed by mode (nil
	// for modes whose budget covers the full tensor).
	Epoch(epoch int, sampled []*tensor.COO) error
	// MTTKRP computes the sampled mode-n MTTKRP into out (dims[n] x rank,
	// zeroed by the caller) using the current factors.
	MTTKRP(mode int, factors []*la.Dense, out *la.Dense) error
	// FactorUpdated announces factor `mode` changed (after the initial
	// materialization and after every mode update).
	FactorUpdated(mode int, m *la.Dense)
}

// Options configures a randomized ALS run. The embedded cpals.Options mean
// what they mean for cpals.Solve (CSFKernel aside, which is not read), with
// two readings of their own: Tol compares consecutive EXACT fit
// evaluations (one per epoch), and a checkpoint fires only at an iteration
// that is a multiple of both CheckpointEvery and ResampleEvery, so every
// checkpoint is an epoch boundary a resume can redraw from. StartIter must
// be such a boundary.
type Options struct {
	cpals.Options

	// SampleCount is the per-mode sample budget: how many weighted draws
	// (with replacement) each mode update's MTTKRP uses. SampleFraction
	// expresses the same budget as a fraction of nnz; ModeSampleCounts
	// overrides the budget for individual modes (0 entries defer to the
	// global budget). Exactly one of SampleCount/SampleFraction must be
	// set unless every mode is covered by ModeSampleCounts. A budget
	// >= nnz switches that mode to the exact kernel over the full tensor.
	SampleCount      int
	SampleFraction   float64
	ModeSampleCounts []int

	// ResampleEvery is the epoch length: how many iterations reuse one
	// drawn sample before leverage scores are recomputed and the sample
	// redrawn. Exact fits are evaluated at epoch boundaries. Default 1.
	ResampleEvery int

	// FinalFitOnly skips the per-epoch exact fit evaluations, computing
	// only the final one — the cheapest configuration when only the end
	// state matters. Tol-based convergence is then inactive.
	FinalFitOnly bool

	// ExactFinishIters makes the last k iterations run the exact kernel
	// for every mode — a polish phase. Sampled iterations race to the
	// neighborhood of the solution; a few exact sweeps from that warm
	// start close the remaining gap to the exact fixed point at full
	// per-iteration cost. 0 disables (pure sampled run).
	ExactFinishIters int

	// InitState resumes the sampler from a checkpoint's RALS state (what
	// this solver writes to ckpt.File.RALS): the UNNORMALIZED factors,
	// restored bitwise — rows kept across epochs live at solved-row scale,
	// and rebuilding them as A*diag(lambda) would reintroduce rounding — and
	// the resolved sampling schedule, which takes the place of
	// ResampleEvery and the budget fields so the resumed run redraws
	// exactly what the uninterrupted run drew. A resume (StartIter > 0)
	// requires it. Without it, InitFactors is a warm start (the streaming
	// updater's): the unnormalized factors are seeded as A*diag(lambda),
	// the ALS fixed-point identity.
	InitState *ckpt.RALSState

	// Kernel, when non-nil, computes the sampled MTTKRPs (see Kernel).
	Kernel Kernel
}

// Budgets resolves the per-mode sample counts against a tensor.
func (o *Options) Budgets(t *tensor.COO) ([]int, error) {
	order := t.Order()
	nnz := t.NNZ()
	if len(o.ModeSampleCounts) != 0 && len(o.ModeSampleCounts) != order {
		return nil, fmt.Errorf("rals: %d ModeSampleCounts for an order-%d tensor", len(o.ModeSampleCounts), order)
	}
	if o.SampleCount < 0 {
		return nil, fmt.Errorf("rals: SampleCount must be non-negative, got %d", o.SampleCount)
	}
	if o.SampleFraction < 0 {
		return nil, fmt.Errorf("rals: SampleFraction must be non-negative, got %g", o.SampleFraction)
	}
	if o.SampleCount > 0 && o.SampleFraction > 0 {
		return nil, fmt.Errorf("rals: set SampleCount or SampleFraction, not both")
	}
	global := o.SampleCount
	if o.SampleFraction > 0 {
		global = int(math.Ceil(o.SampleFraction * float64(nnz)))
	}
	budgets := make([]int, order)
	for m := range budgets {
		s := global
		if len(o.ModeSampleCounts) > 0 && o.ModeSampleCounts[m] > 0 {
			s = o.ModeSampleCounts[m]
		}
		if s <= 0 {
			return nil, fmt.Errorf("rals: mode %d has no sample budget (set SampleCount, SampleFraction, or ModeSampleCounts)", m)
		}
		budgets[m] = s
	}
	return budgets, nil
}

// schedule resolves the epoch length and the per-mode sample budgets: the
// checkpointed ones on a resume, the options' otherwise.
func (o *Options) schedule(t *tensor.COO) (epochLen int, budgets []int, err error) {
	if st := o.InitState; st != nil {
		return st.ResampleEvery, append([]int(nil), st.SampleCounts...), nil
	}
	budgets, err = o.Budgets(t)
	return max(o.ResampleEvery, 1), budgets, err
}

// Validate checks the options against a tensor.
func (o *Options) Validate(t *tensor.COO) error {
	if err := o.Options.Validate(t); err != nil {
		return err
	}
	if o.ExactFinishIters < 0 {
		return fmt.Errorf("rals: ExactFinishIters must be non-negative, got %d", o.ExactFinishIters)
	}
	if st := o.InitState; st != nil {
		if o.InitFactors == nil {
			return fmt.Errorf("rals: InitState requires InitFactors")
		}
		if err := st.Validate(t.Dims, o.Rank); err != nil {
			return fmt.Errorf("rals: InitState: %w", err)
		}
	} else if o.StartIter > 0 {
		return fmt.Errorf("rals: resuming at iteration %d needs the checkpoint's sampler state (InitState)", o.StartIter)
	}
	e, _, err := o.schedule(t)
	if err != nil {
		return err
	}
	if o.StartIter%e != 0 {
		return fmt.Errorf("rals: StartIter %d is not an epoch boundary (ResampleEvery %d)", o.StartIter, e)
	}
	return nil
}

// Solve runs randomized CP-ALS. The returned result has the same shape and
// semantics as cpals.Solve's: normalized factors, lambda, and per-epoch
// EXACT fits (per-iteration when ResampleEvery is 1).
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	if err := o.Validate(t); err != nil {
		return nil, err
	}
	epochLen, budgets, err := o.schedule(t)
	if err != nil {
		return nil, err
	}
	w := o.Workers()
	s := &solver{
		t:           t,
		o:           o,
		w:           w,
		nnz:         t.NNZ(),
		epochLen:    epochLen,
		budgets:     budgets,
		allFull:     true,
		finishStart: max(o.MaxIters-o.ExactFinishIters, o.StartIter),
		normX:       t.Norm(),
		lambda:      la.VecClone(o.InitLambda),
		ws:          &cpals.Workspace{},
		sampled:     make([]*tensor.COO, t.Order()),
		it:          o.StartIter,
	}
	for m, b := range budgets {
		if b < s.nnz {
			s.allFull = false
		} else {
			budgets[m] = s.nnz // cap: the exact kernel ignores the excess
		}
	}

	// Factors: A[n] is the normalized factor (what MTTKRP, grams, and the
	// fit read), U[n] the unnormalized one (what row solves write). Rows a
	// sampled update skips keep their previous unnormalized value — mixing
	// normalized kept rows with freshly solved rows would collapse them
	// after renormalization. With a full budget every row is solved every
	// update and the split is invisible: the solve is bitwise cpals.Solve.
	for n := 0; n < t.Order(); n++ {
		var a, u *la.Dense
		switch {
		case o.InitState != nil:
			a = o.InitFactors[n].Clone()
			u = la.NewDenseFrom(t.Dims[n], o.Rank, la.VecClone(o.InitState.Unnorm[n]))
		case o.InitFactors != nil:
			a = o.InitFactors[n].Clone()
			u = a.Clone()
			la.ScaleColumnsParallel(u, o.InitLambda, w)
		default:
			a = cpals.InitFactor(o.Seed, n, t.Dims[n], o.Rank)
			u = a.Clone()
		}
		s.factors = append(s.factors, a)
		s.unnorm = append(s.unnorm, u)
		s.grams = append(s.grams, la.GramParallel(a, w))
		if o.Kernel != nil {
			o.Kernel.FactorUpdated(n, a)
		}
	}
	s.smp = newSampler(t, o.Seed, budgets, w)
	return cpals.Run(s, t.Dims, o.Options)
}

// solver is Solve's tier.
type solver struct {
	t        *tensor.COO
	o        Options
	w, nnz   int
	epochLen int
	budgets  []int // resolved per-mode budgets, capped at nnz
	allFull  bool  // every budget covers the tensor: bitwise cpals.Solve
	// Iterations >= finishStart are the exact polish phase: every mode runs
	// the exact kernel over the full tensor, no sampling.
	finishStart int

	normX                  float64
	lambda                 []float64
	factors, unnorm, grams []*la.Dense
	lastM                  *la.Dense
	ws                     *cpals.Workspace
	smp                    *sampler
	sampled                []*tensor.COO // the current epoch's draws, per mode
	it                     int           // the iteration in progress; Fit ends it
	exact                  bool          // iteration it is in the polish phase
}

func (s *solver) Step(n int) error {
	t, w := s.t, s.w
	if n == 0 {
		s.exact = s.it >= s.finishStart
		if s.it%s.epochLen == 0 && !s.allFull && !s.exact {
			// Epoch boundary: recompute leverage scores from the current
			// factors and redraw every sampled mode's nonzeros.
			epoch := s.it / s.epochLen
			s.smp.refreshScores(s.factors, s.grams)
			for m := range s.sampled {
				if s.budgets[m] < s.nnz {
					s.sampled[m] = s.smp.draw(epoch, m)
				}
			}
			if s.o.Kernel != nil {
				if err := s.o.Kernel.Epoch(epoch, s.sampled); err != nil {
					return err
				}
			}
		}
	}
	full := s.budgets[n] >= s.nnz || s.exact
	rank := s.o.Rank
	var m *la.Dense
	if full {
		m = cpals.MTTKRPWorkers(t, n, s.factors, w, s.ws.Out(n, t.Dims[n], rank, w), s.ws)
	} else {
		m = s.ws.Out(n, t.Dims[n], rank, w)
		if s.o.Kernel != nil {
			if err := s.o.Kernel.MTTKRP(n, s.factors, m); err != nil {
				return err
			}
		} else {
			cpals.MTTKRPWorkers(s.sampled[n], n, s.factors, w, m, s.ws)
		}
	}
	pinv := la.Pinv(cpals.HadamardOfGramsExcept(s.grams, n))
	u := s.unnorm[n]
	if full {
		la.RowBlocksApply(w, u.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				la.VecMatInto(u.Row(i), m.Row(i), pinv)
			}
		})
	} else {
		// Solve only the rows the sample touched; keep the rest at
		// their previous unnormalized value; pin structurally empty
		// rows to zero (what the exact solver computes for them).
		smi := s.sampled[n].ModeIndex(n)
		fmi := t.ModeIndex(n)
		la.RowBlocksApply(w, u.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch {
				case smi.RowPtr[i+1] > smi.RowPtr[i]:
					la.VecMatInto(u.Row(i), m.Row(i), pinv)
				case fmi.RowPtr[i+1] == fmi.RowPtr[i]:
					row := u.Row(i)
					for r := range row {
						row[r] = 0
					}
				}
			}
		})
	}
	a := u.Clone()
	s.lambda = la.NormalizeColumnsParallel(a, w)
	s.factors[n] = a
	s.grams[n] = la.GramParallel(a, w)
	if s.o.Kernel != nil {
		s.o.Kernel.FactorUpdated(n, a)
	}
	s.lastM = m
	return nil
}

// Fit evaluates the exact fit at epoch ends (unless FinalFitOnly) and after
// the last iteration; other iterations record none.
func (s *solver) Fit() (float64, bool, error) {
	it := s.it
	s.it++
	if ((it+1)%s.epochLen != 0 || s.o.FinalFitOnly) && it != s.o.MaxIters-1 {
		return 0, false, nil
	}
	last := len(s.factors) - 1
	if s.allFull || s.exact {
		// Bitwise-cpals path: the SPLATT fit identity over the last
		// mode's exact MTTKRP, no extra tensor pass.
		return cpals.FitFromWorkers(s.normX, s.lastM, s.factors[last], s.lambda, s.grams, s.w), true, nil
	}
	inner := innerProductWorkers(s.t, s.lambda, s.factors, s.w)
	return cpals.FitFromInner(s.normX, inner, s.lambda, s.grams), true, nil
}

func (s *solver) Lambda() []float64    { return s.lambda }
func (s *solver) Factors() []*la.Dense { return s.factors }

// Checkpoint adds the sampler state at epoch boundaries and declines
// every other iteration.
func (s *solver) Checkpoint(cp *ckpt.File) bool {
	if cp.Iter%s.epochLen != 0 {
		return false
	}
	cp.RALS = &ckpt.RALSState{ResampleEvery: s.epochLen, SampleCounts: append([]int(nil), s.budgets...)}
	for _, u := range s.unnorm {
		cp.RALS.Unnorm = append(cp.RALS.Unnorm, la.VecClone(u.Data))
	}
	return true
}

// innerProductWorkers computes <X, X_hat> by a pass over the nonzeros,
// reduced in fixed par.SumBlocks block order (bitwise independent of the
// worker count).
func innerProductWorkers(t *tensor.COO, lambda []float64, factors []*la.Dense, workers int) float64 {
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

// sampler draws the per-epoch, per-mode weighted nonzero samples. All
// randomness flows through rng.UniformAt keyed by (seed, samplingTag,
// epoch, mode, draw), so draws are pure functions of the solver state —
// nothing here depends on worker count or timing.
type sampler struct {
	t       *tensor.COO
	seed    uint64
	budgets []int
	workers int

	scores [][]float64 // per mode: leverage score of each row
	weight []float64   // scratch: per-entry sampling weight
	counts []int32     // scratch: per-entry draw multiplicity
}

func newSampler(t *tensor.COO, seed uint64, budgets []int, workers int) *sampler {
	s := &sampler{t: t, seed: seed, budgets: budgets, workers: workers}
	s.scores = make([][]float64, t.Order())
	for m := range s.scores {
		s.scores[m] = make([]float64, t.Dims[m])
	}
	s.weight = make([]float64, len(t.Entries))
	s.counts = make([]int32, len(t.Entries))
	return s
}

// refreshScores recomputes every mode's per-row leverage score estimates
// from the current factors: lev_m(i) = a_i^T pinv(G_m) a_i, clamped at 0
// (the exact leverage scores of A_m's row space, up to pinv conditioning).
func (s *sampler) refreshScores(factors, grams []*la.Dense) {
	for m := range s.scores {
		p := la.Pinv(grams[m])
		a := factors[m]
		sc := s.scores[m]
		la.RowBlocksApply(s.workers, a.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := a.Row(i)
				var q float64
				for r := range row {
					var pr float64
					prow := p.Row(r)
					for c := range row {
						pr += prow[c] * row[c]
					}
					q += row[r] * pr
				}
				if q < 0 || math.IsNaN(q) {
					q = 0
				}
				sc[i] = q
			}
		})
	}
}

// draw samples budgets[mode] nonzeros with replacement, weighted by the
// product of the OTHER modes' leverage scores at each entry's coordinates,
// and returns them as an importance-weighted COO: each distinct drawn entry
// appears once, in storage order, with value val*count*total/(budget*w) —
// an unbiased estimator of the exact MTTKRP. Degenerate weight tables (all
// zero, infinite, NaN) fall back to uniform weights deterministically.
func (s *sampler) draw(epoch, mode int) *tensor.COO {
	t := s.t
	order := t.Order()
	n := len(t.Entries)
	la.RowBlocksApply(s.workers, n, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			e := &t.Entries[p]
			w := 1.0
			for m := 0; m < order; m++ {
				if m == mode {
					continue
				}
				w *= s.scores[m][e.Idx[m]]
			}
			s.weight[p] = w
		}
	})
	var total float64
	for p := 0; p < n; p++ {
		total += s.weight[p]
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		for p := 0; p < n; p++ {
			s.weight[p] = 1
		}
		total = float64(n)
	} else {
		// Defensive mixing: blend the leverage weights with uniform so no
		// entry's importance scale (total/(budget*w)) can explode — a
		// tiny-weight entry that does get drawn would otherwise inject an
		// enormous scaled value and destabilize the sketched update. The
		// estimator divides by the weight actually used, so it stays
		// unbiased.
		mix := defensiveMix * total / float64(n)
		total = 0
		for p := 0; p < n; p++ {
			w := (1-defensiveMix)*s.weight[p] + mix
			s.weight[p] = w
			total += w
		}
	}

	// Systematic (low-discrepancy) resampling: one uniform offset u, then
	// budget equally spaced probes u, u+1, ... over the cdf scaled to
	// [0, budget). count_p = #probes inside entry p's cdf segment, so
	// E[count_p] = budget*w_p/total with variance at most 1 — entries
	// whose expected count exceeds 1 are included deterministically. Far
	// lower estimator variance than independent multinomial draws, still
	// unbiased, and still a pure function of (seed, epoch, mode).
	budget := s.budgets[mode]
	u := rng.UniformAt(s.seed, samplingTag, uint64(epoch), uint64(mode))
	step := total / float64(budget)
	distinct := 0
	pos := u * step
	cum := 0.0
	for p := 0; p < n; p++ {
		cum += s.weight[p]
		c := int32(0)
		for pos < cum {
			c++
			pos += step
		}
		s.counts[p] = c
		if c > 0 {
			distinct++
		}
	}

	out := tensor.New(t.Dims...)
	out.Entries = make([]tensor.Entry, 0, distinct)
	scale := total / float64(budget)
	for p := 0; p < n; p++ {
		c := s.counts[p]
		if c == 0 {
			continue
		}
		e := t.Entries[p]
		e.Val *= float64(c) * scale / s.weight[p]
		out.Entries = append(out.Entries, e)
	}
	return out
}
