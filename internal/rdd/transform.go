package rdd

import "cstf/internal/cluster"

// Option tunes the cost accounting of a transformation.
type Option func(*opts)

type opts struct {
	flopsPerRecord float64
	costFactor     float64
	name           string
}

// WithFlops declares the floating-point work the transformation's function
// performs per input record, so the cost model can charge it to the right
// nodes. Engine overhead (RecordCost) is always charged separately.
func WithFlops(perRecord float64) Option {
	return func(o *opts) { o.flopsPerRecord = perRecord }
}

// WithCostFactor scales the per-record engine cost charged by this
// operation. Records whose values are structurally heavier than a flat
// tuple — e.g. CSTF-QCOO's per-nonzero queue of row vectors, which costs
// extra allocation, pointer chasing, and (de)serialization on a JVM — carry
// a factor > 1. This is the knob behind the paper's observation that the
// queue strategy is slightly slower than plain COO on small clusters.
func WithCostFactor(f float64) Option {
	return func(o *opts) { o.costFactor = f }
}

// WithName overrides the debug name of the resulting dataset.
func WithName(name string) Option {
	return func(o *opts) { o.name = name }
}

func applyOpts(def string, os []Option) opts {
	o := opts{name: def, costFactor: 1}
	for _, f := range os {
		f(&o)
	}
	return o
}

// narrowTasks charges a narrow (pipelined, no-shuffle) stage over the given
// per-partition record counts. Tasks are indexed by output partition, so
// during lineage recovery only the rebuilt partitions are charged.
func narrowTasks(ctx *Context, counts []int, o opts) {
	tasks := make([]cluster.Task, len(counts))
	for p, n := range counts {
		tasks[p] = cluster.Task{
			Node:    ctx.Cluster.NodeOf(p),
			Records: o.costFactor * float64(n),
			Flops:   o.flopsPerRecord * float64(n),
		}
	}
	ctx.runOutputStage(false, tasks)
}

// Map applies f to every record. The result is not key-partitioned even if
// the input was (Spark cannot prove f preserves keys).
func Map[T, U any](d *Dataset[T], f func(T) U, sizeOf func(U) int, os ...Option) *Dataset[U] {
	o := applyOpts("map", os)
	out := newDataset[U](d.ctx, o.name, sizeOf)
	out.compute = func() [][]U {
		in := d.materialize()
		parts := make([][]U, d.ctx.Parts)
		counts := make([]int, d.ctx.Parts)
		d.ctx.Cluster.Parallel(d.ctx.Parts, func(p int) {
			src := in[p]
			dst := make([]U, len(src))
			for i := range src {
				dst[i] = f(src[i])
			}
			parts[p] = dst
			counts[p] = len(src)
		})
		oc := o
		oc.costFactor *= d.readCost()
		narrowTasks(d.ctx, counts, oc)
		return parts
	}
	return out
}

// MapValues transforms the value of each KV record, preserving the key and
// therefore the partitioning — the property QCOO's queue-reduction step
// (STAGE 3 of Table 2) depends on to avoid a shuffle.
func MapValues[K comparable, V, W any](d *Dataset[KV[K, V]], f func(V) W, sizeOf func(KV[K, W]) int, os ...Option) *Dataset[KV[K, W]] {
	o := applyOpts("mapValues", os)
	out := newDataset[KV[K, W]](d.ctx, o.name, sizeOf)
	out.keyed = d.keyed
	out.compute = func() [][]KV[K, W] {
		in := d.materialize()
		parts := make([][]KV[K, W], d.ctx.Parts)
		counts := make([]int, d.ctx.Parts)
		d.ctx.Cluster.Parallel(d.ctx.Parts, func(p int) {
			src := in[p]
			dst := make([]KV[K, W], len(src))
			for i := range src {
				dst[i] = KV[K, W]{Key: src[i].Key, Val: f(src[i].Val)}
			}
			parts[p] = dst
			counts[p] = len(src)
		})
		oc := o
		oc.costFactor *= d.readCost()
		narrowTasks(d.ctx, counts, oc)
		return parts
	}
	return out
}
