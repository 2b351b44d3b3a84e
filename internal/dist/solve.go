package dist

import (
	"errors"
	"fmt"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Solve runs CP-ALS with the compute stages executed on remote workers. It
// mirrors cpals.Solve stage for stage — same initialization, same update
// order, same reduction trees — so the returned factorization is bitwise
// identical to the single-process solver for every worker count and every
// task placement, including placements forced by worker deaths. (With
// Config.UseCSF the reference is the single-process CSF solver — cpals
// Options.CSFKernel — not the COO one; see the Config docs.)
//
// The returned Stats are real measurements (wall clock, bytes on sockets),
// populated even when the solve fails partway.
//
// Fleet collapse — every remaining stage target dead, or the live count
// under Config.MinWorkers at an iteration boundary — does not fail the
// run unless MinWorkers is negative: the coordinator holds the complete
// solver state, so it degrades to a local cpals.Solve from its last
// iteration-boundary snapshot. ALS is deterministic, so the degraded
// result is bitwise identical to the distributed one.
func Solve(t *tensor.COO, opts cpals.Options, cfg Config) (*cpals.Result, Stats, error) {
	start := time.Now()
	if err := opts.Validate(t); err != nil {
		return nil, Stats{}, err
	}
	s, err := NewSession(t, opts.Rank, cfg)
	if err != nil {
		return nil, Stats{WallSeconds: time.Since(start).Seconds()}, err
	}
	defer s.Close()
	res, err := s.solve(opts)

	var nw *NoWorkersError
	if errors.As(err, &nw) && s.cfg.MinWorkers >= 0 && s.snap != nil {
		s.logf("dist: %v; degrading to coordinator-local solve from iteration %d", err, s.snap.iter)
		s.stats.Degraded = true
		lo := opts
		lo.StartIter = s.snap.iter
		lo.InitFactors = s.snap.factors
		lo.InitLambda = s.snap.lambda
		if len(lo.InitLambda) == 0 {
			// Collapse during iteration 0: no normalization has produced a
			// lambda yet. The local solver overwrites it before any read but
			// validates its length, so hand it a zero vector.
			lo.InitLambda = make([]float64, opts.Rank)
		}
		lo.InitFits = s.snap.fits
		lo.CSFKernel = s.cfg.UseCSF
		res, err = cpals.Solve(t, lo)
	}
	s.lap(&s.stats.Phases.Other)

	st := s.Stats()
	st.WallSeconds = time.Since(start).Seconds()
	return res, st, err
}

// snapshot is the coordinator's complete solver state at an iteration
// boundary — everything a local solve needs to finish the job bitwise
// identically after fleet collapse.
type snapshot struct {
	iter    int
	lambda  []float64
	factors []*la.Dense
	fits    []float64
}

// rowsView is a zero-copy view of rows [lo, hi) of m.
func rowsView(m *la.Dense, lo, hi int) *la.Dense {
	return &la.Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// blockChunks cuts nb par.BlockSize blocks into at most parts contiguous
// chunks; chunk k is [k*nb/parts, (k+1)*nb/parts). Empty chunks are kept
// (callers skip them) so the chunk index doubles as the home worker slot.
func blockChunk(k, nb, parts int) (lo, hi int) {
	return k * nb / parts, (k + 1) * nb / parts
}

// solve runs the coordinator's tier under cpals.Run. Stages are BEGUN in
// the exact sequence the pre-pipelined runtime used — per mode: MTTKRP, row
// solve, gram; fit last — so chaos-plan stage numbers mean the same thing.
// What overlaps is the waiting: mode n's partial-gram reduce is awaited
// only after mode n+1's MTTKRP has been begun (and the iteration's fit is
// begun before the last gram is awaited), so the gram round trips hide
// behind the most expensive stage instead of adding to it. Results are
// applied in fixed block order after each await, so completion order never
// touches the arithmetic and the bitwise guarantee is preserved.
func (s *Session) solve(opts cpals.Options) (*cpals.Result, error) {
	t := s.t
	order := t.Order()
	ph := &s.stats.Phases
	a := &coordinator{
		s:           s,
		w:           opts.Workers(),
		W:           len(s.remotes),
		rank:        opts.Rank,
		ranges:      make([][]tensor.NNZRange, order),
		pendingMode: -1,
		it:          opts.StartIter,
	}

	// Partition every mode once. The cut points depend only on (tensor, W),
	// so re-runs — and reassignments within a run — see identical tasks.
	for m, mi := range t.ModeIndexes(a.w) {
		a.ranges[m] = mi.Ranges(a.W)
	}
	s.lap(&ph.Partition)

	// Ship each worker its shards — range k of every mode lives on slot k —
	// and freeze the communication plan in the same pass: which factor rows
	// each worker's resident work reads, hence what a delta must carry.
	s.shipShards(a.ranges)
	s.lap(&ph.ShardShip)

	// Deterministic initialization + initial grams, exactly as the serial
	// solver computes them (elementwise init; block-ordered gram sums).
	// The first FactorUpdate per mode is always a full broadcast — it also
	// seeds the per-worker last-sent snapshots deltas diff against.
	for n := 0; n < order; n++ {
		if opts.InitFactors != nil {
			a.factors = append(a.factors, opts.InitFactors[n].Clone())
		} else {
			a.factors = append(a.factors, cpals.InitFactor(opts.Seed, n, t.Dims[n], opts.Rank))
		}
		a.grams = append(a.grams, la.GramParallel(a.factors[n], a.w))
		s.FactorUpdate(n, a.factors[n])
	}
	// Rejoining workers are brought current from these live matrices.
	s.TrackFactors(a.factors)
	a.normX = t.Norm()
	a.lambda = la.VecClone(opts.InitLambda)
	a.fits = append(a.fits, opts.InitFits...)
	s.lap(&ph.FactorInit)

	// A scheduled TornWrite fires right after the checkpoint hook: it
	// damages the file just written, simulating a crash mid-write that a
	// later resume must detect.
	if hook := opts.OnCheckpoint; hook != nil && s.cfg.OnTornWrite != nil && s.cfg.Plan != nil {
		opts.OnCheckpoint = func(cp *ckpt.File) error {
			if err := hook(cp); err != nil {
				return err
			}
			if len(s.cfg.Plan.TakeEvents(s.stageSeq, chaos.TornWrite)) > 0 {
				s.logf("dist: chaos tears the checkpoint written at iteration %d", cp.Iter)
				s.cfg.OnTornWrite(cp.Iter)
			}
			return nil
		}
	}
	return cpals.Run(a, t.Dims, opts)
}

// coordinator is the dist tier: the coordinator's half of every stage, the
// fleet computing the other half.
type coordinator struct {
	s       *Session
	w       int // coordinator-local parallelism (init, pinv, normalize)
	W       int // worker slots; partition frozen at session start
	rank    int
	ranges  [][]tensor.NNZRange
	normX   float64
	lambda  []float64
	factors []*la.Dense
	grams   []*la.Dense
	lastM   *la.Dense

	// The in-flight gram reduce, when pipelining is on.
	pendingGram *gramRun
	pendingMode int

	// The iteration in progress and the fits recorded before it: what an
	// iteration-boundary snapshot needs beyond the model.
	it   int
	fits []float64
}

func (a *coordinator) awaitPending() error {
	if a.pendingGram == nil {
		return nil
	}
	g, err := a.s.awaitGram(a.pendingGram)
	if err != nil {
		return err
	}
	a.grams[a.pendingMode] = g
	a.pendingGram = nil
	a.s.lap(&a.s.stats.Phases.GramWait)
	return nil
}

func (a *coordinator) Step(n int) error {
	s, ph := a.s, &a.s.stats.Phases
	if n == 0 {
		// Iteration-boundary snapshot: factors at iteration start fully
		// determine the rest of the solve, so fleet collapse anywhere in
		// this iteration degrades to a local solve from here — bitwise
		// identical, because ALS is deterministic. Also the point where
		// the configured live-worker floor is enforced.
		if floor := s.minWorkers(); floor >= 0 {
			s.snap = &snapshot{
				iter:    a.it,
				lambda:  la.VecClone(a.lambda),
				fits:    append([]float64(nil), a.fits...),
				factors: make([]*la.Dense, len(a.factors)),
			}
			for m := range a.factors {
				s.snap.factors[m] = a.factors[m].Clone()
			}
			if live := s.Alive(); live < floor {
				return &NoWorkersError{Stage: s.stageSeq, Live: live, Floor: floor}
			}
		}
		s.lap(&ph.Other)
	}
	mtt := s.beginMTTKRP(n, a.ranges[n], a.rank, a.factors)
	s.lap(&ph.MTTKRPWait)
	if err := a.awaitPending(); err != nil {
		return err
	}
	m, computedBy, err := s.awaitMTTKRP(mtt)
	if err != nil {
		return err
	}
	s.lap(&ph.MTTKRPWait)
	pinv := la.Pinv(cpals.HadamardOfGramsExcept(a.grams, n))
	if err := s.rowSolveStage(n, a.ranges[n], pinv, m, computedBy, a.factors[n]); err != nil {
		return err
	}
	s.lap(&ph.RowSolve)
	a.lambda = la.NormalizeColumnsParallel(a.factors[n], a.w)
	s.lap(&ph.Normalize)
	s.FactorUpdate(n, a.factors[n])
	s.lap(&ph.FactorUpdate)
	pg := s.beginGram(n, a.factors[n], a.rank, a.W, a.w)
	if s.cfg.NoPipeline {
		if a.grams[n], err = s.awaitGram(pg); err != nil {
			return err
		}
	} else {
		a.pendingGram, a.pendingMode = pg, n
	}
	s.lap(&ph.GramWait)
	a.lastM = m
	return nil
}

func (a *coordinator) Fit() (float64, bool, error) {
	s, ph := a.s, &a.s.stats.Phases
	fr := s.beginFit(len(a.factors)-1, a.lastM, a.lambda, a.W, a.w, a.factors)
	s.lap(&ph.FitWait)
	if err := a.awaitPending(); err != nil {
		return 0, false, err
	}
	inner, err := s.awaitFit(fr)
	if err != nil {
		return 0, false, err
	}
	s.lap(&ph.FitWait)
	fit := cpals.FitFromInner(a.normX, inner, a.lambda, a.grams)
	a.it++
	a.fits = append(a.fits, fit)
	return fit, true, nil
}

func (a *coordinator) Lambda() []float64          { return a.lambda }
func (a *coordinator) Factors() []*la.Dense       { return a.factors }
func (a *coordinator) Checkpoint(*ckpt.File) bool { return true }

// mttkrpRun is an in-flight MTTKRP stage.
type mttkrpRun struct {
	stg   *stage
	mode  int
	m     *la.Dense
	tasks []*stageTask
}

// beginMTTKRP starts the full mode-n MTTKRP across the workers. Output
// rows are disjoint between tasks, so assembling the partial results is
// pure placement — no floating-point reduction — and each row's bits match
// the shared-memory kernel. A task that lands off its home slot gets its
// shard re-shipped and every input factor resynced as needed.
func (s *Session) beginMTTKRP(n int, rgs []tensor.NNZRange, rank int, factors []*la.Dense) *mttkrpRun {
	run := &mttkrpRun{mode: n, m: la.NewDense(s.t.Dims[n], rank)}
	run.tasks = make([]*stageTask, len(rgs))
	for k, rg := range rgs {
		rg, k := rg, k
		run.tasks[k] = &stageTask{
			task: &Task{Kind: TaskPartialMTTKRP, Mode: n, RowLo: rg.RowLo, RowHi: rg.RowHi},
			home: k,
			prep: func(r *remote, _ *Task) error {
				if r.slot != k {
					// The MTTKRP inputs are every factor but mode n.
					for m := range factors {
						if m == n {
							continue
						}
						if err := s.ensureCurrent(r, m, factors[m]); err != nil {
							return err
						}
					}
				}
				key := shardKey{n, rg.RowLo, rg.RowHi}
				if r.hasShard[key] {
					return nil
				}
				s.stats.ShardResends++
				return s.sendShard(r, key, shardFrame(s.t, n, rg, nil))
			},
			onResult: func(res *Result) error {
				if res.Rows == nil || res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != rank {
					return fmt.Errorf("dist: mttkrp mode %d rows [%d,%d): malformed result", n, rg.RowLo, rg.RowHi)
				}
				copy(run.m.Data[rg.RowLo*rank:rg.RowHi*rank], res.Rows.Data)
				return nil
			},
		}
	}
	run.stg = s.beginStage(run.tasks)
	return run
}

// awaitMTTKRP completes an MTTKRP stage, returning the assembled matrix
// and, per range, the CONNECTION that computed it (its rows are resident
// there for the row solve). Remotes, not slots: a worker that died and
// rejoined occupies the same slot with a fresh session that holds nothing,
// and only pointer identity tells the two apart.
func (s *Session) awaitMTTKRP(run *mttkrpRun) (*la.Dense, []*remote, error) {
	if err := s.awaitStage(run.stg); err != nil {
		return nil, nil, err
	}
	computedBy := make([]*remote, len(run.tasks))
	for k, st := range run.tasks {
		computedBy[k] = s.remotes[st.assigned]
	}
	return run.m, computedBy, nil
}

// rowSolveStage computes a_i = m_i * pinv for every factor row. Each task
// prefers the connection already holding its MTTKRP rows; any other target
// — including the same slot after a rejoin, whose fresh session holds
// nothing — gets the rows shipped from the coordinator's assembled copy.
// Rows past the last range (trailing all-empty rows the partitioner drops)
// have zero MTTKRP rows, so their solution is the zero row — written
// locally, exactly what the serial solver computes for them.
func (s *Session) rowSolveStage(n int, rgs []tensor.NNZRange, pinv, m *la.Dense, computedBy []*remote, a *la.Dense) error {
	tasks := make([]*stageTask, len(rgs))
	for k, rg := range rgs {
		rg, home := rg, computedBy[k]
		st := &stageTask{
			task: &Task{Kind: TaskRowSolve, Mode: n, RowLo: rg.RowLo, RowHi: rg.RowHi, Pinv: pinv},
			home: home.slot,
			prep: func(r *remote, task *Task) error {
				if r != home {
					task.MRows = rowsView(m, rg.RowLo, rg.RowHi)
				}
				return nil
			},
			onResult: func(res *Result) error {
				if res.Rows == nil || res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != pinv.Cols {
					return fmt.Errorf("dist: row-solve mode %d rows [%d,%d): malformed result", n, rg.RowLo, rg.RowHi)
				}
				copy(a.Data[rg.RowLo*a.Cols:rg.RowHi*a.Cols], res.Rows.Data)
				return nil
			},
		}
		tasks[k] = st
	}
	if err := s.runStage(tasks); err != nil {
		return err
	}
	covered := 0
	if len(rgs) > 0 {
		covered = rgs[len(rgs)-1].RowHi
	}
	tail := a.Data[covered*a.Cols:]
	for i := range tail {
		tail[i] = 0
	}
	return nil
}

// gramRun is an in-flight gram stage.
type gramRun struct {
	stg      *stage
	mode     int
	rank     int
	partials []*la.Dense
	local    *la.Dense // set when the gram was computed on the coordinator
}

// distributeBlocks reports whether a mode with nb par blocks is worth
// distributing over W workers. Below one block per worker the chunks can't
// engage the fleet, and shipping the stage to a subset would force full
// factor currency on those workers — defeating delta broadcasts. Such
// modes are computed on the coordinator instead; both paths use the same
// block-ordered summation, so the result is bitwise identical either way.
func distributeBlocks(nb, W int) bool { return nb >= W }

// beginGram starts grams[n] = A^T A as per-block partials on the workers.
// awaitGram sums them in ascending global block order — the identical
// summation tree la.GramParallel uses, hence identical bits regardless of
// completion order. Modes too small to spread across the fleet (see
// distributeBlocks) are computed locally; the stage slot is still burned
// so chaos-plan stage numbers keep their meaning.
func (s *Session) beginGram(n int, a *la.Dense, rank, W, w int) *gramRun {
	nb := par.NumBlocks(a.Rows)
	run := &gramRun{mode: n, rank: rank, partials: make([]*la.Dense, nb)}
	if !distributeBlocks(nb, W) {
		run.local = la.GramParallel(a, w)
		run.stg = s.beginStage(nil)
		return run
	}
	var tasks []*stageTask
	for k := 0; k < W; k++ {
		k := k
		lo, hi := blockChunk(k, nb, W)
		if lo >= hi {
			continue
		}
		tasks = append(tasks, &stageTask{
			task: &Task{Kind: TaskGram, Mode: n, BlockLo: lo, BlockHi: hi},
			home: k,
			prep: func(r *remote, _ *Task) error {
				if r.slot != k {
					return s.ensureCurrent(r, n, a)
				}
				return nil
			},
			onResult: func(res *Result) error {
				if len(res.Grams) != hi-lo {
					return fmt.Errorf("dist: gram mode %d blocks [%d,%d): got %d partials", n, lo, hi, len(res.Grams))
				}
				for i, g := range res.Grams {
					if g == nil || g.Rows != rank || g.Cols != rank {
						return fmt.Errorf("dist: gram mode %d block %d: malformed partial", n, lo+i)
					}
					run.partials[lo+i] = g
				}
				return nil
			},
		})
	}
	run.stg = s.beginStage(tasks)
	return run
}

func (s *Session) awaitGram(run *gramRun) (*la.Dense, error) {
	if err := s.awaitStage(run.stg); err != nil {
		return nil, err
	}
	if run.local != nil {
		return run.local, nil
	}
	g := la.NewDense(run.rank, run.rank)
	for _, p := range run.partials {
		for i, v := range p.Data {
			g.Data[i] += v
		}
	}
	return g, nil
}

// fitRun is an in-flight fit stage.
type fitRun struct {
	stg      *stage
	partials []float64
	local    bool // inner product was computed on the coordinator
	inner    float64
}

// beginFit starts <X, X_hat> as per-block partials on the workers over the
// last mode's MTTKRP rows; awaitFit sums them in ascending block order —
// the summation tree of par.SumBlocks, hence bitwise equal to
// FitFromWorkers. Like beginGram, a last mode too small to spread across
// the fleet is computed locally behind an empty (numbered) stage.
func (s *Session) beginFit(lastMode int, lastM *la.Dense, lambda []float64, W, w int, factors []*la.Dense) *fitRun {
	nb := par.NumBlocks(lastM.Rows)
	run := &fitRun{partials: make([]float64, nb)}
	if !distributeBlocks(nb, W) {
		f := factors[lastMode]
		run.local = true
		run.inner = par.SumBlocks(w, lastM.Rows, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				mrow := lastM.Row(i)
				arow := f.Row(i)
				for r := range mrow {
					sum += mrow[r] * arow[r] * lambda[r]
				}
			}
			return sum
		})
		run.stg = s.beginStage(nil)
		return run
	}
	var tasks []*stageTask
	for k := 0; k < W; k++ {
		k := k
		lo, hi := blockChunk(k, nb, W)
		if lo >= hi {
			continue
		}
		rowHi := hi * par.BlockSize
		if rowHi > lastM.Rows {
			rowHi = lastM.Rows
		}
		tasks = append(tasks, &stageTask{
			task: &Task{
				Kind: TaskFitPartial, Mode: lastMode, BlockLo: lo, BlockHi: hi,
				Lambda: lambda, MRows: rowsView(lastM, lo*par.BlockSize, rowHi),
			},
			home: k,
			prep: func(r *remote, _ *Task) error {
				if r.slot != k {
					return s.ensureCurrent(r, lastMode, factors[lastMode])
				}
				return nil
			},
			onResult: func(res *Result) error {
				if len(res.Partials) != hi-lo {
					return fmt.Errorf("dist: fit blocks [%d,%d): got %d partials", lo, hi, len(res.Partials))
				}
				copy(run.partials[lo:hi], res.Partials)
				return nil
			},
		})
	}
	run.stg = s.beginStage(tasks)
	return run
}

func (s *Session) awaitFit(run *fitRun) (float64, error) {
	if err := s.awaitStage(run.stg); err != nil {
		return 0, err
	}
	if run.local {
		return run.inner, nil
	}
	var inner float64
	for _, p := range run.partials {
		inner += p
	}
	return inner, nil
}
