package core

import (
	"fmt"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
)

// QCOOState is the persistent state of the CSTF-QCOO CP-ALS loop
// (Algorithm 3): the queued tensor RDD X_Q whose records carry a FIFO queue
// of factor rows, the distributed factor matrices (the Z queue of
// Algorithm 3, realized per-record), and the driver-side FIFO queue of gram
// matrices (the V queue). Exposing the state lets experiments run single
// MTTKRP steps (Figure 5) with the exact steady-state data layout.
type QCOOState struct {
	ctx     *rdd.Context
	dims    []int
	order   int
	rank    int
	seed    uint64
	xq      *rdd.Dataset[rdd.KV[uint32, qVal]]
	factors []*FactorRDD
	vqueue  []*la.Dense // gram matrices of the next order-1 fixed modes
	lambda  []float64
	lastM   *rdd.Dataset[Row]
	normX   float64

	// DisableGramReuse turns off the V-queue (Algorithm 3's once-per-
	// update gram computation) and recomputes every fixed factor's gram at
	// each step, the way COO does. Exists for the gram-reuse ablation.
	DisableGramReuse bool
}

// NewQCOOState initializes CSTF-QCOO for a tensor: creates the factor
// matrices, builds the per-record row queues (charged to the MTTKRP-1
// phase, as the paper's Figure 5 discussion attributes the queue
// initialization overhead), and fills the V queue with the gram matrices
// of modes 1..N-1.
func NewQCOOState(ctx *rdd.Context, t *tensor.COO, rank int, seed uint64) *QCOOState {
	order := t.Order()
	c := ctx.Cluster
	s := &QCOOState{
		ctx:   ctx,
		dims:  append([]int(nil), t.Dims...),
		order: order,
		rank:  rank,
		seed:  seed,
		normX: t.Norm(),
	}

	c.SetPhase(PhaseOther)
	s.factors = make([]*FactorRDD, order)
	for n := 0; n < order; n++ {
		s.factors[n] = initFactorRDD(ctx, seed, n, t.Dims[n], rank).Persist()
	}

	// Queue initialization. The queue entering the first MTTKRP must hold
	// the initial rows of modes 0..N-2 (N-2 of them are what MTTKRP-1
	// needs beyond the joined factor; the mode-0 row is the stale row its
	// update discards) with the record keyed by the last mode. The paper
	// builds this with N-1 joins against the initial factor matrices
	// ("an overhead of N shuffles", Section 5); because this repository's
	// factor initialization is a pure function of (seed, mode, index), each
	// record GENERATES those rows in place instead — numerically identical,
	// no join, and the remaining cost of building the per-record queue
	// objects is exactly the mode-1 overhead Figure 5 discusses.
	c.SetPhase(PhaseOf(0))
	entries := rdd.FromSlice(ctx, "tensor", t.Entries, rdd.FixedSize[tensor.Entry](tensor.EntryBytes(order)))
	sz := qSize(order, rank)
	cur := rdd.Map(entries, func(e tensor.Entry) rdd.KV[uint32, qVal] {
		q := make([][]float64, order-1)
		for m := 0; m < order-1; m++ {
			row := make([]float64, rank)
			for r := range row {
				row[r] = cpals.FactorInitValue(seed, m, int(e.Idx[m]), r)
			}
			q[m] = row
		}
		return rdd.KV[uint32, qVal]{Key: e.Idx[order-1], Val: qVal{E: e, Q: q}}
	}, sz, rdd.WithCostFactor(1+1.30*float64(order-1)), // allocate + first-serialize every queue object
		rdd.WithFlops(float64((order-1)*rank)),
		rdd.WithName("qcoo-init-queues"))
	s.xq = cur.Persist()

	// V queue (Algorithm 3 line 1): grams of modes 0..N-2.
	c.SetPhase(PhaseOther)
	for n := 0; n < order-1; n++ {
		s.vqueue = append(s.vqueue, gramOf(s.factors[n], rank))
	}
	return s
}

// Step performs the mode-n MTTKRP and factor update (one trip through the
// body of Algorithm 3): join the previously updated factor into the queue
// RDD (one wide shuffle), rotate each record's queue while re-keying to the
// target mode, reduce the queue to the per-nonzero contribution, and
// reduceByKey (the second shuffle) into the MTTKRP result; then dequeue/
// enqueue the gram queue, apply the pseudo-inverse and normalize. It
// reports the cluster's sticky failure, if any.
func (s *QCOOState) Step(n int) error {
	c := s.ctx.Cluster
	order, rank := s.order, s.rank
	joinMode := (n - 1 + order) % order

	c.SetPhase(PhaseOf(n))
	sz := qSize(order, rank)
	joinedSize := func(r rdd.KV[uint32, rdd.Pair[qVal, []float64]]) int {
		return 8 + tensor.EntryBytes(order) + 8*rank*(len(r.Val.A.Q)+1)
	}
	joined := rdd.Join(s.xq, s.factors[joinMode], joinedSize, queueCost(order),
		rdd.WithName(fmt.Sprintf("qcoo-join-m%d", joinMode+1)))

	next := rdd.Map(joined, func(r rdd.KV[uint32, rdd.Pair[qVal, []float64]]) rdd.KV[uint32, qVal] {
		v := r.Val.A
		// Enqueue the freshly joined row, dequeue the stale row of the
		// mode being updated (STAGE 2 of Table 2).
		q := make([][]float64, len(v.Q))
		copy(q, v.Q[1:])
		q[len(q)-1] = r.Val.B
		return rdd.KV[uint32, qVal]{Key: v.E.Idx[n], Val: qVal{E: v.E, Q: q}}
	}, sz, queueCost(order), rdd.WithName("qcoo-rotate")).Persist()
	s.xq.Unpersist() // drop the previous MTTKRP's queue RDD (Section 4.2)
	s.xq = next

	// STAGE 3: reduce each record's queue to the Hadamard product scaled
	// by the tensor value, then sum per target-mode index.
	vecs := rdd.MapValues(s.xq, func(v qVal) []float64 {
		out := make([]float64, rank)
		for c := range out {
			out[c] = v.E.Val
		}
		for _, row := range v.Q {
			la.VecMulInto(out, row)
		}
		return out
	}, rowSize(rank), rdd.WithFlops(float64((order-1)*rank)), queueCost(order),
		rdd.WithName("qcoo-queue-reduce"))
	m := rdd.ReduceByKey(vecs, addRows(rank),
		rdd.WithFlops(float64(rank)), rdd.WithName("qcoo-reduce")).Eval()

	// Gram-queue rotation (Algorithm 3 lines 5-13): dequeue the stale gram
	// of mode n, enqueue the gram of the factor joined this step — computed
	// exactly once per update, the reuse Section 4.2 describes.
	c.SetPhase(PhaseOther)
	if s.DisableGramReuse {
		// Ablation path: recompute every fixed gram like COO does; keep
		// the V queue coherent so re-enabling reuse mid-run stays correct.
		s.vqueue = s.vqueue[1:]
		var fresh []*la.Dense
		for k := 1; k < order; k++ {
			fresh = append(fresh, gramOf(s.factors[(n+k)%order], rank))
		}
		s.vqueue = append(s.vqueue[:0], fresh...)
	} else {
		s.vqueue = append(s.vqueue[1:], gramOf(s.factors[joinMode], rank))
	}
	v := la.NewDense(rank, rank)
	for i := range v.Data {
		v.Data[i] = 1
	}
	for _, g := range s.vqueue {
		la.HadamardInto(v, v, g)
	}
	c.ChargeDriver(float64((order - 2) * rank * rank))

	newF, norms := updateFactor(m, v, rank)
	s.factors[n].Unpersist()
	s.factors[n] = newF
	s.lambda = norms
	s.lastM = m
	return c.Err()
}

// Fit returns the model fit using the most recent MTTKRP result.
func (s *QCOOState) Fit() (float64, bool, error) {
	s.ctx.Cluster.SetPhase(PhaseOther)
	return fitOf(s.normX, s.lastM, s.factors, s.lambda, s.rank), true, nil
}

// Checkpoint charges the modeled checkpoint write.
func (s *QCOOState) Checkpoint(*ckpt.File) bool { return chargeCheckpoint(s.ctx, s.dims, s.rank) }

// Factors collects the current factor matrices to the driver.
func (s *QCOOState) Factors() []*la.Dense {
	out := make([]*la.Dense, s.order)
	for n := 0; n < s.order; n++ {
		out[n] = collectFactor(s.factors[n], s.dims[n], s.rank)
	}
	return out
}

// Lambda returns the current column weights.
func (s *QCOOState) Lambda() []float64 { return s.lambda }

// SolveQCOO runs distributed CP-ALS with the CSTF-QCOO algorithm
// (Section 4.2, Algorithm 3). When opts.InitFactors is set the queued state
// is restored from a checkpoint and the loop resumes at opts.StartIter.
func SolveQCOO(ctx *rdd.Context, t *tensor.COO, opts cpals.Options) (*cpals.Result, error) {
	if err := opts.Validate(t); err != nil {
		return nil, err
	}
	var s *QCOOState
	if opts.InitFactors != nil {
		s = NewQCOOStateFromFactors(ctx, t, opts.Rank, opts.InitFactors, opts.InitLambda)
	} else {
		s = NewQCOOState(ctx, t, opts.Rank, opts.Seed)
	}
	if err := ctx.Cluster.Err(); err != nil {
		return nil, err
	}
	return cpals.Run(s, s.dims, opts)
}
