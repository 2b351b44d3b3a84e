package cpals

import (
	"fmt"
	"math/bits"
	"slices"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Source is where a mode update's M = MTTKRP(X, mode n) comes from: the
// shared-memory COO kernel, the CSF trees, or a dist session's workers. The
// tensor to contract and the rows the update solves are arguments, so a
// sampled update hands the source a tensor it has not seen before and a
// streamed window asks only for the rows it touched.
type Source interface {
	// MTTKRP computes the mode MTTKRP of x against factors into out
	// (x.Dims[mode] x rank, zeroed by the caller). rows, when non-nil, are
	// the only output rows the update reads (sorted, unique): the COO
	// source computes just those, the CSF and remote sources the whole mode.
	MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, rows []int, out *la.Dense) error
	// FactorUpdated announces that factor mode is now f: after the initial
	// materialization and after every mode update. Bit i of zero is set when
	// row i of f is all ±0; zero is nil when f holds an entry that is not
	// finite or exceeds 1 in magnitude, and the caller's to reuse once f is
	// replaced.
	FactorUpdated(mode int, f *la.Dense, zero []uint64)
}

// COOSource is the Source of the shared-memory COO kernel (MTTKRPWorkers)
// on Workers goroutines. It drops the nonzeros whose terms are exactly zero
// (DESIGN §9), but only against factors it was told about: FactorUpdated
// hands it a factor's all-zero rows, and a call skips only when every other
// mode's factor is the very matrix last marked for that mode. A COOSource
// built mid-run, or handed factors no FactorUpdated named, runs the plain
// gather. The one SolveWith builds for a solve without a Sampler, of a
// tensor that caches no complete set of mode indexes, streams its full-mode
// MTTKRPs out of mode columns (resident.go) it holds for the solve; every
// other reaches the nonzeros through the mode index.
type COOSource struct {
	Workers int
	zero    []zeroRows // per mode, from the last FactorUpdated
	res     *resident  // the solve's mode columns while SolveWith runs
}

// zeroRows are the marks FactorUpdated was handed for one factor.
type zeroRows struct {
	// f is the factor marked; nil when it came without marks, and nothing
	// is skipped against it.
	f    *la.Dense
	bits []uint64 // bit i: row i of f is all ±0
}

// MTTKRP walks a row set as ranges of x's mode index: each run of listed
// rows with no other nonzero between them is one range, cut at row
// boundaries into parts of about an even share of the listed rows'
// nonzeros per worker. Every row sees its nonzeros in mode-index order, so
// its bits are MTTKRPWorkers' however the ranges fall.
func (s *COOSource) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, rows []int, out *la.Dense) error {
	skip := s.skipMarks(x, mode, factors)
	if rows == nil {
		if s.res != nil && s.res.x == x {
			s.res.mttkrp(mode, factors, s.Workers, out, skip)
		} else {
			mttkrpWorkers(x, mode, factors, s.Workers, out, skip)
		}
		return nil
	}
	w := par.Workers(s.Workers)
	mi := x.ModeIndex(mode)
	total := 0
	for _, i := range rows {
		total += int(mi.RowPtr[i+1] - mi.RowPtr[i])
	}
	part := max((total+w-1)/w, 1)
	var ranges [][2]int32
	for _, i := range rows {
		lo, hi := mi.RowPtr[i], mi.RowPtr[i+1]
		if k := len(ranges) - 1; k >= 0 && ranges[k][1] == lo && int(ranges[k][1]-ranges[k][0]) < part {
			ranges[k][1] = hi
		} else if lo < hi {
			ranges = append(ranges, [2]int32{lo, hi})
		}
	}
	par.Run(w, len(ranges), func(k int) {
		mttkrpAccumulate(out, 0, x.Entries, mi.Perm[ranges[k][0]:ranges[k][1]], mode, factors, skip)
	})
	return nil
}

// skipMarks returns the marks of the modes other than mode when the
// skipping gather is exact and pays on x, else nil. Exact: every other
// factor is the matrix last marked for its mode, so each is finite and
// bounded by 1 in magnitude. Pays: the marked rows of one other mode hold at
// least 1/skipShare of x's nonzeros.
func (s *COOSource) skipMarks(x *tensor.COO, mode int, factors []*la.Dense) *zeroMarks {
	var marks zeroMarks
	c, most := 0, 0
	for m, f := range factors {
		if m == mode {
			continue
		}
		if m >= len(s.zero) || s.zero[m].f != f || f == nil || f.Rows != x.Dims[m] {
			return nil
		}
		z := &s.zero[m]
		marks[c] = z.bits
		c++
		if most*skipShare >= len(x.Entries) {
			continue
		}
		ptr, d := s.rowPtr(x, m), 0
		for k, word := range z.bits {
			for ; word != 0; word &= word - 1 {
				i := k*64 + bits.TrailingZeros64(word)
				d += int(ptr[i+1] - ptr[i])
			}
		}
		most = max(most, d)
	}
	if most == 0 || most*skipShare < len(x.Entries) {
		return nil
	}
	return &marks
}

// rowPtr is x's segment table along mode m: the mode columns' when the
// source holds x's, else the mode index's.
func (s *COOSource) rowPtr(x *tensor.COO, m int) []int32 {
	if s.res != nil && s.res.x == x {
		return s.res.modes[m].rowPtr
	}
	return x.ModeIndex(m).RowPtr
}

// FactorUpdated keeps zero, the marks of f, the factor of mode from now on.
func (s *COOSource) FactorUpdated(mode int, f *la.Dense, zero []uint64) {
	if mode >= len(s.zero) {
		s.zero = append(s.zero, make([]zeroRows, mode+1-len(s.zero))...)
	}
	if zero == nil {
		f = nil
	}
	s.zero[mode] = zeroRows{f, zero}
}

// csfSource is the Source of the CSF kernel over per-mode trees of the
// solve's own tensor, which is the only x it is handed.
type csfSource struct {
	csfs []*tensor.CSF
	w    int
}

func (s csfSource) MTTKRP(_ *tensor.COO, mode int, factors []*la.Dense, _ []int, out *la.Dense) error {
	mttkrpCSFInto(s.csfs[mode], factors, s.w, out)
	return nil
}

func (csfSource) FactorUpdated(int, *la.Dense, []uint64) {}

// NewCSFSource builds the CSF trees of t for a Source that is only ever
// handed t.
func NewCSFSource(t *tensor.COO, workers int) Source { return csfSource{BuildCSFs(t), workers} }

// Sampler restricts the mode updates to a sample or a row set: it picks the
// tensor each update contracts and the rows it solves, may own the
// unnormalized matrices the rule writes, and decides the fit cadence and
// which checkpoints to take. rals samples the nonzeros; a streamed window
// solves the rows its nonzeros touch.
type Sampler interface {
	// Mode is called before mode n's update with the current factors and
	// grams. It returns the tensor to contract (the solve's own, or a
	// sample), the matrix the rule updates, whose normalized copy becomes
	// factor n, and the rows to solve (sorted, unique; nil: all). The live
	// factor is first multiplied by lambda, so the other rows keep their
	// contribution to the model.
	Mode(n int, factors, grams []*la.Dense) (x *tensor.COO, u *la.Dense, rows []int)
	// Fit reports whether the iteration just completed records a fit.
	Fit() bool
	// Checkpoint adds the sampler's state to a snapshot; false declines it.
	Checkpoint(cp *ckpt.File) bool
}

// Update is what distinguishes the tiers that share Algorithm 1's one mode
// update — M from the Source, the factor rows from M and the Hadamard of the
// other modes' grams by the Rule, then normalize, refresh the gram and keep
// M for the fit: Serial (Solve), rals, ncp (the nonnegative Rule) and dist,
// whose Source is the workers.
type Update struct {
	Source  Source  // nil: the CSF trees with Options.CSFKernel, else the COO kernel
	Rule    Rule    // the zero Rule is least squares
	Sampler Sampler // nil: every update contracts the whole tensor, in place
}

// SolveWith runs the ALS iteration of t with the mode update u; the Result
// records u.Rule. The options are the caller's to validate.
func SolveWith(t *tensor.COO, o Options, u Update) (*Result, error) {
	if u.Rule.Nonneg && u.Rule.Inner < 1 {
		return nil, fmt.Errorf("cpals: the nonnegative rule needs at least one inner pass, got %d", u.Rule.Inner)
	}
	w := o.Workers()
	s := &als{t: t, w: w, rule: u.Rule, smp: u.Sampler, src: u.Source,
		normX: t.Norm(), lambda: la.VecClone(o.InitLambda),
		ws: &Workspace{slab: make([]float64, slices.Max(t.Dims)*o.Rank)}, tail: &tail{w: w, zero: make([][]uint64, t.Order())}}
	indexed := true // the source reads the mode indexes
	switch {
	case s.src != nil:
		_, csf := s.src.(csfSource)
		indexed = !csf
	case o.CSFKernel:
		s.src, indexed = NewCSFSource(t, w), false
	default:
		coo := &COOSource{Workers: w}
		if u.Sampler == nil && !t.ModeIndexesCached() {
			// Every update contracts t in full and the tensor caches no
			// mode indexes to gather through: stream each mode's columns
			// for the solve instead of building them. Where the indexes
			// are cached already (a stream updater's full sweep after a
			// window, a Serial solve after a dist solve of the tensor)
			// the columns would only add their bytes beside them.
			defer coo.keepColumns(t, w)()
			indexed = coo.res == nil
		}
		s.src = coo
	}
	if indexed {
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
		gram, zero := s.tail.refresh(f, f, nil, s.tail.marks(n, f.Rows))
		s.factors = append(s.factors, f)
		s.grams = append(s.grams, gram)
		s.src.FactorUpdated(n, f, zero)
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
	// lastM is the last mode's MTTKRP result, which the fit reads. Every
	// mode's MTTKRP output is a view of the one ws slab; nothing in the
	// Result retains them.
	lastM *la.Dense
	ws    *Workspace
	tail  *tail
	// sampled records that an update of this iteration solved a row set,
	// so the fit cannot come from lastM.
	sampled bool
}

func (s *als) Step(n int) error {
	x, u, rows := s.t, s.factors[n], []int(nil)
	if s.smp != nil {
		x, u, rows = s.smp.Mode(n, s.factors, s.grams)
	}
	m := s.ws.Out(n, u.Rows, u.Cols, s.w)
	if err := s.src.MTTKRP(x, n, s.factors, rows, m); err != nil {
		return err
	}
	var scale []float64
	if u == s.factors[n] && (rows != nil || s.rule.Nonneg) && len(s.lambda) == u.Cols {
		// A_n * diag(lambda) is the current model (an empty lambda, a
		// fresh start's, is all ones): skipped rows keep their
		// contribution and coordinate descent warm-starts from it.
		scale = s.lambda
	}
	s.sampled = s.sampled || rows != nil
	if u != s.factors[n] {
		s.factors[n] = la.NewDense(u.Rows, u.Cols) // the sampler keeps its matrix unnormalized
	}
	z := s.tail.marks(n, u.Rows)
	s.lambda = s.tail.solve(u, m, HadamardOfGramsExcept(s.grams, n), rows, scale, s.rule, z)
	s.grams[n], z = s.tail.refresh(s.factors[n], u, s.lambda, z)
	s.src.FactorUpdated(n, s.factors[n], z)
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
