// Package bigtensor reproduces the paper's comparison baseline: the
// BIGtensor library's distributed CP-ALS, which uses the GigaTensor
// algorithm on Hadoop MapReduce (Section 4.3 and Table 2, left column).
//
// Per mode-n MTTKRP the baseline runs a pipeline of MapReduce jobs over the
// mode-n MATRICIZED tensor X(n):
//
//	job 1: join X(n) with factor C along the slowest-varying other mode and
//	       scale: emits (i, j0, X(n)(i,j0) * C(j0 / J, :))
//	job 2: join bin(X(n)) — the 0/1 sparsity pattern, recomputed with a
//	       full pass over the tensor — with factor B along the other mode:
//	       emits (i, j0, B(j0 % J, :))
//	job 3: join both intermediates on (i, j0) and Hadamard-combine
//	job 4: sum the combined rows by i into the MTTKRP result M
//
// plus a map-only pseudo-inverse job and a gram job per factor update.
// Every job pays Hadoop's startup cost and materializes its output to
// replicated HDFS; nothing is cached between jobs — exactly the overheads
// CSTF eliminates. Like BIGtensor, this implementation supports 3rd-order
// tensors only.
package bigtensor

import (
	"fmt"
	"math"

	"cstf/internal/ckpt"
	"cstf/internal/cluster"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/mapreduce"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// frow is a factor-matrix row stored on HDFS (always the RAW, unnormalized
// row; normalization scales are driver state applied on the fly, the
// distributed-cache trick Hadoop implementations use).
type frow struct {
	Idx uint32
	Vec []float64
}

// inter is a stage-1/2 intermediate record: one matricized nonzero
// position with an attached length-R vector.
type inter struct {
	Row uint32
	Col uint64
	Vec []float64
}

// Solver holds the HDFS state of a BIGtensor CP-ALS run.
type Solver struct {
	env    *mapreduce.Env
	dims   []int
	rank   int
	normX  float64
	tf     *mapreduce.File[tensor.Entry]
	ff     []*mapreduce.File[frow]
	scales [][]float64 // per-mode column norms (1 = normalized already)
	grams  []*la.Dense // grams of the NORMALIZED factors
	lambda []float64
}

// PhaseOf mirrors core.PhaseOf for per-mode metric attribution.
func PhaseOf(mode int) string { return fmt.Sprintf("MTTKRP-%d", mode+1) }

// New uploads the tensor and deterministic initial factors to HDFS.
// Only 3rd-order tensors are supported, as in BIGtensor itself.
func New(env *mapreduce.Env, t *tensor.COO, rank int, seed uint64) (*Solver, error) {
	if t.Order() != 3 {
		return nil, fmt.Errorf("bigtensor: only 3rd-order tensors are supported (got order %d)", t.Order())
	}
	if t.NNZ() == 0 {
		return nil, fmt.Errorf("bigtensor: tensor has no nonzeros")
	}
	env.C.SetPhase("Other")
	s := &Solver{
		env:   env,
		dims:  append([]int(nil), t.Dims...),
		rank:  rank,
		normX: t.Norm(),
	}
	s.tf = mapreduce.WriteFile(env, "tensor", t.Entries,
		func(tensor.Entry) int { return tensor.EntryBytes(3) })
	rowSize := func(frow) int { return 8 * (1 + rank) }
	for n := 0; n < 3; n++ {
		init := cpals.InitFactor(seed, n, t.Dims[n], rank)
		rows := make([]frow, t.Dims[n])
		for i := range rows {
			rows[i] = frow{Idx: uint32(i), Vec: init.Row(i)}
		}
		s.ff = append(s.ff, mapreduce.WriteFile(env, fmt.Sprintf("factor-%d", n), rows, rowSize))
		s.scales = append(s.scales, ones(rank))
		s.grams = append(s.grams, init.Gram())
		env.C.ChargeDriver(float64(t.Dims[n] * rank * rank))
	}
	return s, nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// NewFromFactors rebuilds a Solver from checkpointed state: the tensor is
// re-uploaded and the NORMALIZED factors written to HDFS as-is (scales of 1),
// with their grams recomputed on the driver. Because BIGtensor's iteration
// state is exactly {tensor, factors, scales, grams}, a restored solver
// continues the original ALS trajectory.
func NewFromFactors(env *mapreduce.Env, t *tensor.COO, rank int, factors []*la.Dense, lambda []float64) (*Solver, error) {
	if t.Order() != 3 {
		return nil, fmt.Errorf("bigtensor: only 3rd-order tensors are supported (got order %d)", t.Order())
	}
	if len(factors) != 3 {
		return nil, fmt.Errorf("bigtensor: %d factors for an order-3 tensor", len(factors))
	}
	env.C.SetPhase("Other")
	s := &Solver{
		env:    env,
		dims:   append([]int(nil), t.Dims...),
		rank:   rank,
		normX:  t.Norm(),
		lambda: la.VecClone(lambda),
	}
	s.tf = mapreduce.WriteFile(env, "tensor", t.Entries,
		func(tensor.Entry) int { return tensor.EntryBytes(3) })
	rowSize := func(frow) int { return 8 * (1 + rank) }
	for n := 0; n < 3; n++ {
		f := factors[n]
		if f == nil || f.Rows != t.Dims[n] || f.Cols != rank {
			return nil, fmt.Errorf("bigtensor: factors[%d] must be %dx%d", n, t.Dims[n], rank)
		}
		f = f.Clone()
		rows := make([]frow, f.Rows)
		for i := range rows {
			rows[i] = frow{Idx: uint32(i), Vec: f.Row(i)}
		}
		s.ff = append(s.ff, mapreduce.WriteFile(env, fmt.Sprintf("factor-%d", n), rows, rowSize))
		s.scales = append(s.scales, ones(rank))
		s.grams = append(s.grams, f.Gram())
		env.C.ChargeDriver(float64(t.Dims[n] * rank * rank))
	}
	return s, nil
}

// joinMsg is the tagged-union value of the reduce-side joins in jobs 1-2.
type joinMsg struct {
	isRow bool
	row   []float64
	ent   tensor.MatEntry
}

// MTTKRP runs the four-job GigaTensor MTTKRP along `mode` and returns the
// HDFS file of result rows.
func (s *Solver) MTTKRP(mode int) *mapreduce.File[frow] {
	env := s.env
	rank := s.rank
	env.C.SetPhase(PhaseOf(mode))

	// The two fixed modes, in Table 2's order: job 1 joins the factor of
	// the slowest-varying other mode (C for mode 1), job 2 the other (B).
	var others []int
	for m := 2; m >= 0; m-- {
		if m != mode {
			others = append(others, m)
		}
	}
	strides := tensor.UnfoldStrides(s.dims, mode)

	interSize := func(uint32, joinMsg) int { return 24 + 8*rank }
	outSize := func(inter) int { return 16 + 8*rank }

	runJoin := func(jobName string, joinMode int, scaleByValue bool) *mapreduce.File[inter] {
		env.IncrCounter("tensor-hdfs-reads", 1)
		if !scaleByValue {
			// The bin() pass: a full scan of the tensor just to reproduce
			// its sparsity pattern (the overhead Section 4.3 calls out).
			env.IncrCounter("bin-passes", 1)
		}
		scale := s.scales[joinMode]
		return mapreduce.RunJob2(env, jobName,
			s.tf, func(e tensor.Entry, emit mapreduce.Emit[uint32, joinMsg]) {
				// Matricize on the fly (and, for job 2, bin(): drop the value).
				row, col := tensor.LinearizeEntry(&e, mode, strides)
				me := tensor.MatEntry{Row: row, Col: col, Val: e.Val}
				if !scaleByValue {
					me.Val = 1 // bin(X): preserve the sparsity pattern only
				}
				emit(e.Idx[joinMode], joinMsg{ent: me})
			},
			s.ff[joinMode], func(r frow, emit mapreduce.Emit[uint32, joinMsg]) {
				// Normalize the raw HDFS row with the driver-held scales.
				v := make([]float64, rank)
				for c := range v {
					v[c] = r.Vec[c] / scale[c]
				}
				emit(r.Idx, joinMsg{isRow: true, row: v})
			},
			nil,
			func(k uint32, vals []joinMsg, out func(inter)) {
				var row []float64
				for _, v := range vals {
					if v.isRow {
						row = v.row
						break
					}
				}
				if row == nil {
					return // slice with no factor row (cannot happen: factors are dense)
				}
				for _, v := range vals {
					if v.isRow {
						continue
					}
					vec := make([]float64, rank)
					for c := range vec {
						vec[c] = v.ent.Val * row[c]
					}
					out(inter{Row: v.ent.Row, Col: v.ent.Col, Vec: vec})
				}
			},
			interSize, outSize,
			mapreduce.JobOpts{MapFlops: 1, ReduceFlops: float64(rank)},
		)
	}

	i1 := runJoin(fmt.Sprintf("m%d-join-C", mode+1), others[0], true)
	i2 := runJoin(fmt.Sprintf("m%d-join-B", mode+1), others[1], false)

	// Job 3: combine the two intermediates on (row, col) with a Hadamard
	// product. Both full intermediate datasets shuffle — "double the number
	// of tensor nonzeros" (Section 4.3).
	pairKey := func(e inter) rng.Pair64 { return rng.Pair64{A: uint64(e.Row), B: e.Col} }
	combined := mapreduce.RunJob2(env, fmt.Sprintf("m%d-combine", mode+1),
		i1, func(e inter, emit mapreduce.Emit[rng.Pair64, []float64]) { emit(pairKey(e), e.Vec) },
		i2, func(e inter, emit mapreduce.Emit[rng.Pair64, []float64]) { emit(pairKey(e), e.Vec) },
		nil,
		func(k rng.Pair64, vals [][]float64, out func(frow)) {
			if len(vals) != 2 {
				panic("bigtensor: combine expects exactly two intermediates per nonzero")
			}
			vec := make([]float64, rank)
			for c := range vec {
				vec[c] = vals[0][c] * vals[1][c]
			}
			out(frow{Idx: uint32(k.A), Vec: vec})
		},
		func(rng.Pair64, []float64) int { return 16 + 8*rank },
		func(frow) int { return 8 * (1 + rank) },
		// R flops per input record: the Hadamard product touches each of
		// the two intermediates once (2 x nnz records, 2 x nnz x R flops
		// total, the paper's "final multiplication at STAGE-3").
		mapreduce.JobOpts{ReduceFlops: float64(rank)},
	)

	// Job 4: sum combined rows by target-mode index into M.
	return mapreduce.RunJob(env, fmt.Sprintf("m%d-rowsum", mode+1),
		combined,
		func(r frow, emit mapreduce.Emit[uint32, []float64]) { emit(r.Idx, r.Vec) },
		func(a, b []float64) []float64 {
			out := make([]float64, len(a))
			for i := range out {
				out[i] = a[i] + b[i]
			}
			return out
		},
		func(k uint32, vals [][]float64, out func(frow)) {
			vec := make([]float64, rank)
			for _, v := range vals {
				for c := range vec {
					vec[c] += v[c]
				}
			}
			out(frow{Idx: k, Vec: vec})
		},
		func(uint32, []float64) int { return 8 * (1 + rank) },
		func(frow) int { return 8 * (1 + rank) },
		mapreduce.JobOpts{ReduceFlops: float64(rank)},
	)
}

// Step updates the factor of one mode: MTTKRP, pseudo-inverse application
// (map-only job), gram recomputation (one job), and driver-side
// normalization bookkeeping. It reports the cluster's sticky failure, if
// any.
func (s *Solver) Step(mode int) error {
	env := s.env
	rank := s.rank
	m := s.MTTKRP(mode)

	env.C.SetPhase("Other")
	v := cpals.HadamardOfGramsExcept(s.grams, mode)
	pinv := la.Pinv(v)
	env.C.ChargeDriver(30 * float64(rank*rank*rank))

	raw := mapreduce.RunMapJob(env, fmt.Sprintf("m%d-update", mode+1), m,
		func(r frow) []frow {
			vec := make([]float64, rank)
			la.VecMatInto(vec, r.Vec, pinv)
			return []frow{{Idx: r.Idx, Vec: vec}}
		},
		func(frow) int { return 8 * (1 + rank) },
		2*float64(rank*rank),
	)
	s.ff[mode] = raw

	// Gram job over the raw rows; column norms are its diagonal, and the
	// gram of the normalized factor follows by scaling — no extra pass.
	gramRaw := mapreduce.RunJob(env, fmt.Sprintf("m%d-gram", mode+1), raw,
		func(r frow, emit mapreduce.Emit[uint8, *la.Dense]) {
			g := la.NewDense(rank, rank)
			for a := 0; a < rank; a++ {
				for b := 0; b < rank; b++ {
					g.Data[a*rank+b] = r.Vec[a] * r.Vec[b]
				}
			}
			emit(0, g)
		},
		func(a, b *la.Dense) *la.Dense {
			for i := range a.Data {
				a.Data[i] += b.Data[i]
			}
			return a
		},
		func(k uint8, vals []*la.Dense, out func(*la.Dense)) {
			g := la.NewDense(rank, rank)
			for _, v := range vals {
				for i := range g.Data {
					g.Data[i] += v.Data[i]
				}
			}
			out(g)
		},
		func(uint8, *la.Dense) int { return 8 * rank * rank },
		func(*la.Dense) int { return 8 * rank * rank },
		mapreduce.JobOpts{MapFlops: float64(rank * rank), ReduceFlops: float64(rank * rank)},
	).Collect()[0]

	norms := make([]float64, rank)
	for c := 0; c < rank; c++ {
		norms[c] = math.Sqrt(gramRaw.At(c, c))
		if norms[c] == 0 {
			norms[c] = 1
		}
	}
	g := la.NewDense(rank, rank)
	for a := 0; a < rank; a++ {
		for b := 0; b < rank; b++ {
			g.Set(a, b, gramRaw.At(a, b)/(norms[a]*norms[b]))
		}
	}
	s.scales[mode] = norms
	s.grams[mode] = g
	s.lambda = norms
	return env.Err()
}

// Fit reports fit 0 for every iteration: BigTensor has no cheap in-band
// fit, so progress callbacks still count and stop iterations, and Solve
// replaces the history with one driver-side fit at the end.
func (s *Solver) Fit() (float64, bool, error) { return 0, true, nil }

// Lambda returns the current column weights.
func (s *Solver) Lambda() []float64 { return s.lambda }

// Checkpoint charges the modeled checkpoint write; the file carries no
// fits, since the iterations recorded none.
func (s *Solver) Checkpoint(cp *ckpt.File) bool {
	s.env.C.ChargeCheckpointWrite(cpals.CheckpointBytes(s.dims, s.rank))
	cp.Fits = nil
	return true
}

// Factors collects the normalized factor matrices to the driver.
func (s *Solver) Factors() []*la.Dense {
	out := make([]*la.Dense, 3)
	for n := 0; n < 3; n++ {
		f := la.NewDense(s.dims[n], s.rank)
		for _, r := range s.ff[n].Collect() {
			row := f.Row(int(r.Idx))
			for c := range row {
				row[c] = r.Vec[c] / s.scales[n][c]
			}
		}
		out[n] = f
	}
	return out
}

// Solve runs BIGtensor CP-ALS for a fixed number of iterations (the paper
// runs 20 and reports the per-iteration average; BIGtensor has no cheap
// in-band fit computation, so opts.Tol is ignored and the fit is evaluated
// once at the end on the driver).
func Solve(env *mapreduce.Env, t *tensor.COO, opts cpals.Options) (*cpals.Result, error) {
	if err := opts.Validate(t); err != nil {
		return nil, err
	}
	var s *Solver
	var err error
	if opts.InitFactors != nil {
		s, err = NewFromFactors(env, t, opts.Rank, opts.InitFactors, opts.InitLambda)
	} else {
		s, err = New(env, t, opts.Rank, opts.Seed)
	}
	if err != nil {
		return nil, err
	}
	if err := env.Err(); err != nil {
		return nil, err
	}
	opts.Tol = 0
	res, err := cpals.Run(s, s.dims, opts)
	if err != nil {
		return nil, err
	}
	res.Fits = []float64{driverFit(t, res)}
	return res, nil
}

// driverFit evaluates the model fit with a driver-side pass over the
// nonzeros (diagnostic only; not part of the modeled Hadoop runtime).
func driverFit(t *tensor.COO, res *cpals.Result) float64 {
	grams := make([]*la.Dense, len(res.Factors))
	for n, f := range res.Factors {
		grams[n] = f.Gram()
	}
	var inner float64
	for i := range t.Entries {
		e := &t.Entries[i]
		inner += e.Val * res.ReconstructAt(int(e.Idx[0]), int(e.Idx[1]), int(e.Idx[2]))
	}
	return cpals.FitFromInner(t.Norm(), inner, res.Lambda, grams)
}

// Metrics convenience: expose the underlying cluster for callers holding
// only a Solver.
func (s *Solver) Cluster() *cluster.Cluster { return s.env.C }
