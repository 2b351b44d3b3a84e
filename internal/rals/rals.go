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
// counts (internal/dist runs this same solver with its MTTKRPs on workers,
// over row-aligned shards). Sample draws are pure functions
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

// Update checks the options against t and returns the mode update that runs
// them: the least-squares rule over the shared-memory COO kernel, its
// MTTKRPs reshaped by the leverage-score sampler, on the checkpointed
// sampling schedule on a resume and the options' otherwise.
func (o *Options) Update(t *tensor.COO) (cpals.Update, error) {
	if err := o.Options.Validate(t); err != nil {
		return cpals.Update{}, err
	}
	if o.ExactFinishIters < 0 {
		return cpals.Update{}, fmt.Errorf("rals: ExactFinishIters must be non-negative, got %d", o.ExactFinishIters)
	}
	epochLen := max(o.ResampleEvery, 1)
	var budgets []int
	switch st := o.InitState; {
	case st != nil && o.InitFactors == nil:
		return cpals.Update{}, fmt.Errorf("rals: InitState requires InitFactors")
	case st != nil:
		if err := st.Validate(t.Dims, o.Rank); err != nil {
			return cpals.Update{}, fmt.Errorf("rals: InitState: %w", err)
		}
		epochLen, budgets = st.ResampleEvery, append([]int(nil), st.SampleCounts...)
	case o.StartIter > 0:
		return cpals.Update{}, fmt.Errorf("rals: resuming at iteration %d needs the checkpoint's sampler state (InitState)", o.StartIter)
	default:
		var err error
		if budgets, err = o.Budgets(t); err != nil {
			return cpals.Update{}, err
		}
	}
	if o.StartIter%epochLen != 0 {
		return cpals.Update{}, fmt.Errorf("rals: StartIter %d is not an epoch boundary (ResampleEvery %d)", o.StartIter, epochLen)
	}
	return cpals.Update{Source: cpals.COOSource{Workers: o.Workers()}, Sampler: newSampler(t, *o, epochLen, budgets)}, nil
}

// Solve runs randomized CP-ALS: the shared cpals mode update with the
// least-squares rule, its MTTKRPs reshaped by the leverage-score sampler.
// The returned result has the same shape and semantics as cpals.Solve's:
// normalized factors, lambda, and per-epoch EXACT fits (per-iteration when
// ResampleEvery is 1).
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	u, err := o.Update(t)
	if err != nil {
		return nil, err
	}
	return cpals.SolveWith(t, o.Options, u)
}

// sampler is rals' cpals.Sampler: the epoch cadence, the per-epoch,
// per-mode weighted nonzero samples, the solved-row set and the
// unnormalized factors. All randomness flows through rng.UniformAt keyed by
// (seed, samplingTag, epoch, mode, draw), so draws are pure functions of
// the solver state — nothing here depends on worker count or timing.
type sampler struct {
	t        *tensor.COO
	o        Options
	w, nnz   int
	epochLen int
	budgets  []int // resolved per-mode budgets, capped at nnz
	allFull  bool  // every budget covers the tensor: bitwise cpals.Solve
	// Iterations >= finishStart are the exact polish phase: every mode
	// contracts the full tensor, no sampling.
	finishStart int

	// unnorm[n] is the unnormalized factor the row solves write; factor n is
	// its normalized copy. Rows a sampled update skips keep their previous
	// unnormalized value — mixing normalized kept rows with freshly solved
	// rows would collapse them after renormalization. With a full budget
	// every row is solved every update and the split is invisible: the solve
	// is bitwise cpals.Solve. Unless InitState restores it, unnorm[n] starts
	// at mode n's first update as the factor then current — times
	// diag(InitLambda) on a warm start, the ALS fixed-point identity.
	unnorm  []*la.Dense
	sampled []*tensor.COO // the current epoch's draws, per mode
	it      int           // the iteration in progress; Fit ends it
	exact   bool          // iteration it is in the polish phase

	scores [][]float64 // per mode: leverage score of each row
	weight []float64   // scratch: per-entry sampling weight
	counts []int32     // scratch: per-entry draw multiplicity
}

// newSampler builds the sampler of options Update accepted, on their
// resolved epoch length and budgets.
func newSampler(t *tensor.COO, o Options, epochLen int, budgets []int) *sampler {
	s := &sampler{t: t, o: o, w: o.Workers(), nnz: t.NNZ(), epochLen: epochLen, budgets: budgets, allFull: true,
		finishStart: max(o.MaxIters-o.ExactFinishIters, o.StartIter), it: o.StartIter,
		unnorm: make([]*la.Dense, t.Order()), sampled: make([]*tensor.COO, t.Order()), scores: make([][]float64, t.Order()),
		weight: make([]float64, len(t.Entries)), counts: make([]int32, len(t.Entries))}
	for m, b := range budgets {
		if b < s.nnz {
			s.allFull = false
		} else {
			budgets[m] = s.nnz // cap: the exact kernel ignores the excess
		}
		s.scores[m] = make([]float64, t.Dims[m])
	}
	if st := o.InitState; st != nil {
		for n, u := range st.Unnorm {
			s.unnorm[n] = la.NewDenseFrom(t.Dims[n], o.Rank, la.VecClone(u))
		}
	}
	return s
}

// Mode redraws every sampled mode at an epoch boundary, then hands mode n's
// update its sample and the rows the sample holds a nonzero in (or, for a
// full budget or in the polish phase, the full tensor and every row) and
// its unnormalized factor, whose structurally empty rows it pins to zero
// (what the exact solver computes for them).
func (s *sampler) Mode(n int, factors, grams []*la.Dense) (*tensor.COO, *la.Dense, []int) {
	if n == 0 {
		s.exact = s.it >= s.finishStart
		if s.it%s.epochLen == 0 && !s.allFull && !s.exact {
			// Epoch boundary: recompute leverage scores from the current
			// factors and redraw every sampled mode's nonzeros.
			epoch := s.it / s.epochLen
			s.refreshScores(factors, grams)
			for m := range s.sampled {
				if s.budgets[m] < s.nnz {
					s.sampled[m] = s.draw(epoch, m)
				}
			}
		}
	}
	u := s.unnorm[n]
	if u == nil {
		u = factors[n].Clone()
		if s.o.InitFactors != nil {
			la.ScaleColumnsParallel(u, s.o.InitLambda, s.w)
		}
		s.unnorm[n] = u
	}
	if s.budgets[n] >= s.nnz || s.exact {
		return s.t, u, nil
	}
	fmi := s.t.ModeIndex(n)
	la.RowBlocksApply(s.w, u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if fmi.RowPtr[i+1] == fmi.RowPtr[i] {
				row := u.Row(i)
				for r := range row {
					row[r] = 0
				}
			}
		}
	})
	rows, ptr := []int{}, s.sampled[n].ModeIndex(n).RowPtr
	for i := range u.Rows {
		if ptr[i+1] > ptr[i] {
			rows = append(rows, i)
		}
	}
	return s.sampled[n], u, rows
}

// Fit records the exact fit at epoch ends (unless FinalFitOnly) and after
// the last iteration; other iterations record none.
func (s *sampler) Fit() bool {
	it := s.it
	s.it++
	return ((it+1)%s.epochLen == 0 && !s.o.FinalFitOnly) || it == s.o.MaxIters-1
}

// Checkpoint adds the sampler state at epoch boundaries and declines
// every other iteration.
func (s *sampler) Checkpoint(cp *ckpt.File) bool {
	if cp.Iter%s.epochLen != 0 {
		return false
	}
	cp.RALS = &ckpt.RALSState{ResampleEvery: s.epochLen, SampleCounts: append([]int(nil), s.budgets...)}
	for _, u := range s.unnorm {
		cp.RALS.Unnorm = append(cp.RALS.Unnorm, la.VecClone(u.Data))
	}
	return true
}

// refreshScores recomputes every mode's per-row leverage score estimates
// from the current factors: lev_m(i) = a_i^T pinv(G_m) a_i, clamped at 0
// (the exact leverage scores of A_m's row space, up to pinv conditioning).
func (s *sampler) refreshScores(factors, grams []*la.Dense) {
	for m := range s.scores {
		p := la.Pinv(grams[m])
		a := factors[m]
		sc := s.scores[m]
		la.RowBlocksApply(s.w, a.Rows, func(lo, hi int) {
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
	la.RowBlocksApply(s.w, n, func(lo, hi int) {
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
	u := rng.UniformAt(s.o.Seed, samplingTag, uint64(epoch), uint64(mode))
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
