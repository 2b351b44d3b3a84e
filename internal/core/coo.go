package core

import (
	"fmt"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
)

// PhaseOf returns the metrics phase label for the 1-based MTTKRP mode, as
// used by the Figure 4/5 breakdowns ("MTTKRP-1", ...).
func PhaseOf(mode int) string { return fmt.Sprintf("MTTKRP-%d", mode+1) }

// PhaseOther labels all non-MTTKRP work (factor updates, gram matrices,
// fit computation, queue initialization amortization).
const PhaseOther = "Other"

// MTTKRPCOO performs one distributed MTTKRP along `mode` with the CSTF-COO
// workflow of Table 2: key the cached tensor by one non-target mode, join
// the corresponding factor, fold the joined row into the per-nonzero
// accumulator while re-keying for the next mode, and after the last join
// reduceByKey on the target mode's index to assemble the result rows.
// For an order-N tensor this is N-1 join shuffles plus one reduce shuffle.
func MTTKRPCOO(entries *rdd.Dataset[tensor.Entry], factors []*FactorRDD, mode, rank int) *rdd.Dataset[Row] {
	order := len(factors)
	joinModes := make([]int, 0, order-1)
	for m := order - 1; m >= 0; m-- {
		if m != mode {
			joinModes = append(joinModes, m)
		}
	}

	first := joinModes[0]
	sz := cooSize(order, rank)
	cur := rdd.Map(entries, func(e tensor.Entry) rdd.KV[uint32, cooVal] {
		return rdd.KV[uint32, cooVal]{Key: e.Idx[first], Val: cooVal{E: e}}
	}, sz, rdd.WithName("coo-keyBy"))

	joinedSize := func(r rdd.KV[uint32, rdd.Pair[cooVal, []float64]]) int {
		return 8 + tensor.EntryBytes(order) + 2*8*rank
	}
	for i, jm := range joinModes {
		joined := rdd.Join(cur, factors[jm], joinedSize,
			rdd.WithName(fmt.Sprintf("coo-join-m%d", jm+1)))
		nextKey := mode
		if i+1 < len(joinModes) {
			nextKey = joinModes[i+1]
		}
		firstJoin := i == 0
		cur = rdd.Map(joined, func(r rdd.KV[uint32, rdd.Pair[cooVal, []float64]]) rdd.KV[uint32, cooVal] {
			v := r.Val.A
			row := r.Val.B
			acc := make([]float64, rank)
			if firstJoin {
				// Fold the tensor value in with the first row so the
				// accumulator is always a plain length-R vector.
				for c := range acc {
					acc[c] = v.E.Val * row[c]
				}
			} else {
				la.VecHadamardInto(acc, v.Acc, row)
			}
			return rdd.KV[uint32, cooVal]{Key: v.E.Idx[nextKey], Val: cooVal{E: v.E, Acc: acc}}
		}, sz, rdd.WithFlops(float64(rank)), rdd.WithName("coo-fold"))
	}

	vecs := rdd.MapValues(cur, func(v cooVal) []float64 { return v.Acc },
		rowSize(rank), rdd.WithName("coo-extract"))
	return rdd.ReduceByKey(vecs, addRows(rank),
		rdd.WithFlops(float64(rank)), rdd.WithName("coo-reduce"))
}

// addRows returns a non-mutating vector-sum combiner for ReduceByKey.
func addRows(rank int) func(a, b []float64) []float64 {
	return func(a, b []float64) []float64 {
		out := make([]float64, rank)
		for i := range out {
			out[i] = a[i] + b[i]
		}
		return out
	}
}

// COOState is the persistent state of the CSTF-COO CP-ALS loop: the cached
// tensor RDD and the distributed factor matrices. Like QCOOState it exposes
// a step API so experiments can measure individual MTTKRPs.
type COOState struct {
	ctx     *rdd.Context
	dims    []int
	order   int
	rank    int
	entries *rdd.Dataset[tensor.Entry]
	factors []*FactorRDD
	lambda  []float64
	lastM   *rdd.Dataset[Row]
	normX   float64
}

// NewCOOState loads the tensor into a raw-cached RDD (Section 4.1,
// "Caching") and materializes the initial factor matrices.
func NewCOOState(ctx *rdd.Context, t *tensor.COO, rank int, seed uint64) *COOState {
	return NewCOOStateWithStorage(ctx, t, rank, seed, false)
}

// NewCOOStateWithStorage selects the tensor cache's storage level:
// serialized=false is the paper's choice (raw objects, fast reads, larger
// footprint); serialized=true is the MEMORY_ONLY_SER alternative the paper
// rejects for iterative algorithms. The caching ablation compares both.
func NewCOOStateWithStorage(ctx *rdd.Context, t *tensor.COO, rank int, seed uint64, serialized bool) *COOState {
	order := t.Order()
	ctx.Cluster.SetPhase(PhaseOther)
	s := &COOState{
		ctx:   ctx,
		dims:  append([]int(nil), t.Dims...),
		order: order,
		rank:  rank,
		normX: t.Norm(),
	}
	s.entries = rdd.FromSlice(ctx, "tensor", t.Entries,
		rdd.FixedSize[tensor.Entry](tensor.EntryBytes(order)))
	if serialized {
		s.entries.PersistSerialized()
	} else {
		s.entries.Persist()
	}
	s.factors = make([]*FactorRDD, order)
	for n := 0; n < order; n++ {
		s.factors[n] = initFactorRDD(ctx, seed, n, t.Dims[n], rank).Persist()
	}
	return s
}

// Step performs the mode-n MTTKRP and factor update and reports the
// cluster's sticky failure, if any. COO recomputes the gram of every fixed
// factor for each update — the "extra reduce operations" QCOO's
// once-per-iteration gram reuse eliminates (Section 4.2).
func (s *COOState) Step(n int) error {
	c := s.ctx.Cluster
	order, rank := s.order, s.rank

	c.SetPhase(PhaseOf(n))
	m := MTTKRPCOO(s.entries, s.factors, n, rank).Eval()

	c.SetPhase(PhaseOther)
	grams := make([]*la.Dense, order)
	for k := 0; k < order; k++ {
		if k != n {
			grams[k] = gramOf(s.factors[k], rank)
		}
	}
	v := cpals.HadamardOfGramsExcept(grams, n)
	c.ChargeDriver(float64((order - 2) * rank * rank))

	newF, norms := updateFactor(m, v, rank)
	s.factors[n].Unpersist()
	s.factors[n] = newF
	s.lambda = norms
	s.lastM = m
	return c.Err()
}

// Fit returns the model fit using the most recent MTTKRP result.
func (s *COOState) Fit() (float64, bool, error) {
	s.ctx.Cluster.SetPhase(PhaseOther)
	return fitOf(s.normX, s.lastM, s.factors, s.lambda, s.rank), true, nil
}

// Checkpoint charges the modeled checkpoint write.
func (s *COOState) Checkpoint(*ckpt.File) bool { return chargeCheckpoint(s.ctx, s.dims, s.rank) }

// Factors collects the current factor matrices to the driver.
func (s *COOState) Factors() []*la.Dense {
	out := make([]*la.Dense, s.order)
	for n := 0; n < s.order; n++ {
		out[n] = collectFactor(s.factors[n], s.dims[n], s.rank)
	}
	return out
}

// Lambda returns the current column weights.
func (s *COOState) Lambda() []float64 { return s.lambda }

// SolveCOO runs distributed CP-ALS with the CSTF-COO algorithm
// (Section 4.1). The tensor is cached raw in memory across iterations;
// every MTTKRP re-joins the factor matrices from scratch. When
// opts.InitFactors is set the state is restored from a checkpoint instead
// of the seeded initialization, and the loop resumes at opts.StartIter.
func SolveCOO(ctx *rdd.Context, t *tensor.COO, opts cpals.Options) (*cpals.Result, error) {
	if err := opts.Validate(t); err != nil {
		return nil, err
	}
	var s *COOState
	if opts.InitFactors != nil {
		s = NewCOOStateFromFactors(ctx, t, opts.Rank, opts.InitFactors, opts.InitLambda)
	} else {
		s = NewCOOState(ctx, t, opts.Rank, opts.Seed)
	}
	if err := ctx.Cluster.Err(); err != nil {
		return nil, err
	}
	return cpals.Run(s, s.dims, opts)
}

// fitOf evaluates the CP fit at the end of an iteration from the last
// MTTKRP result (see cpals.FitFromWorkers): the inner product is a narrow
// co-partitioned join, the model norm comes from fresh gram matrices.
func fitOf(normX float64, lastM *rdd.Dataset[Row], factors []*FactorRDD, lambda []float64, rank int) float64 {
	order := len(factors)
	inner := innerProduct(lastM, factors[order-1], lambda, rank)
	grams := make([]*la.Dense, order)
	for n := 0; n < order; n++ {
		grams[n] = gramOf(factors[n], rank)
	}
	return cpals.FitFromInner(normX, inner, lambda, grams)
}
