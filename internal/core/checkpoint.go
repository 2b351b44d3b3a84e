package core

import (
	"fmt"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
)

// Checkpoint/restore for the Spark-engine solvers. Checkpoints are taken at
// iteration boundaries, where both algorithms satisfy a clean invariant:
// every factor is normalized, lambda holds the last mode's column norms, and
// (for QCOO) the record queues hold the current rows of modes 0..N-2 keyed
// by the last mode's index. Restoring from the collected dense factors
// therefore reproduces the exact working state — ALS is a deterministic
// fixed-point iteration, so a resumed run follows the original trajectory.

// factorRDDFromDense distributes a dense factor matrix as a hash-partitioned
// row RDD, the layout initFactorRDD and updateFactor produce. All-zero rows
// (indices outside the tensor's support, which updateFactor never emits) are
// skipped so the restored RDD matches a post-update factor record-for-record.
func factorRDDFromDense(ctx *rdd.Context, name string, f *la.Dense) *FactorRDD {
	f = f.Clone() // lineage recomputation may re-read it after the caller moves on
	rank := f.Cols
	return rdd.GenerateKeyed(ctx, name,
		func(p int) []Row {
			var rows []Row
			for i := 0; i < f.Rows; i++ {
				if rdd.PartitionOf(uint32(i), ctx.Parts) != p {
					continue
				}
				row := f.Row(i)
				zero := true
				for _, v := range row {
					if v != 0 {
						zero = false
						break
					}
				}
				if zero {
					continue
				}
				rows = append(rows, Row{Key: uint32(i), Val: la.VecClone(row)})
			}
			return rows
		}, rowSize(rank))
}

// NewCOOStateFromFactors rebuilds a COOState from checkpointed factors (the
// state after some completed iteration): the tensor is re-cached and the
// factor RDDs regenerated from the dense matrices.
func NewCOOStateFromFactors(ctx *rdd.Context, t *tensor.COO, rank int, factors []*la.Dense, lambda []float64) *COOState {
	order := t.Order()
	ctx.Cluster.SetPhase(PhaseOther)
	s := &COOState{
		ctx:    ctx,
		dims:   append([]int(nil), t.Dims...),
		order:  order,
		rank:   rank,
		normX:  t.Norm(),
		lambda: la.VecClone(lambda),
	}
	s.entries = rdd.FromSlice(ctx, "tensor", t.Entries,
		rdd.FixedSize[tensor.Entry](tensor.EntryBytes(order))).Persist()
	s.factors = make([]*FactorRDD, order)
	for n := 0; n < order; n++ {
		s.factors[n] = factorRDDFromDense(ctx, fmt.Sprintf("factor-restore-m%d", n+1), factors[n]).Persist()
	}
	return s
}

// NewQCOOStateFromFactors rebuilds a QCOOState from checkpointed factors.
// The record queues are regenerated from the dense matrices — at an
// iteration boundary the queue of each record holds the current rows of
// modes 0..N-2 at that record's indices, keyed by the last mode — and the V
// queue refills with the grams of those same modes.
//
// The rebuilt queue RDD lists records in the tensor's original entry order,
// whereas the live pipeline's queue has been permuted by every shuffle since
// the run began. The values are identical, but downstream reduceByKey sums
// accumulate in a different order, so a resumed QCOO trajectory can drift
// from the uninterrupted one by floating-point rounding (observed: 1 ulp) —
// the same caveat as restarting a real Spark job from a checkpoint.
func NewQCOOStateFromFactors(ctx *rdd.Context, t *tensor.COO, rank int, factors []*la.Dense, lambda []float64) *QCOOState {
	order := t.Order()
	c := ctx.Cluster
	s := &QCOOState{
		ctx:    ctx,
		dims:   append([]int(nil), t.Dims...),
		order:  order,
		rank:   rank,
		normX:  t.Norm(),
		lambda: la.VecClone(lambda),
	}

	c.SetPhase(PhaseOther)
	s.factors = make([]*FactorRDD, order)
	dense := make([]*la.Dense, order)
	for n := 0; n < order; n++ {
		dense[n] = factors[n].Clone()
		s.factors[n] = factorRDDFromDense(ctx, fmt.Sprintf("factor-restore-m%d", n+1), factors[n]).Persist()
	}

	// Rebuild the queue RDD; like first-time initialization this is charged
	// to MTTKRP-1 (it is the restore-time analogue of the queue-build
	// overhead Figure 5 discusses). Queue rows reference the restored dense
	// matrices the same way joined rows are shared between records.
	c.SetPhase(PhaseOf(0))
	entries := rdd.FromSlice(ctx, "tensor", t.Entries, rdd.FixedSize[tensor.Entry](tensor.EntryBytes(order)))
	sz := qSize(order, rank)
	s.xq = rdd.Map(entries, func(e tensor.Entry) rdd.KV[uint32, qVal] {
		q := make([][]float64, order-1)
		for m := 0; m < order-1; m++ {
			q[m] = dense[m].Row(int(e.Idx[m]))
		}
		return rdd.KV[uint32, qVal]{Key: e.Idx[order-1], Val: qVal{E: e, Q: q}}
	}, sz, rdd.WithCostFactor(1+1.30*float64(order-1)),
		rdd.WithName("qcoo-restore-queues")).Persist()

	c.SetPhase(PhaseOther)
	for n := 0; n < order-1; n++ {
		s.vqueue = append(s.vqueue, gramOf(s.factors[n], rank))
	}
	return s
}

// chargeCheckpoint is the Tier.Checkpoint of both Spark-engine states: the
// modeled HDFS write, charged before the factors are collected.
func chargeCheckpoint(ctx *rdd.Context, dims []int, rank int) bool {
	ctx.Cluster.ChargeCheckpointWrite(cpals.CheckpointBytes(dims, rank))
	return true
}
