package rdd

// Actions trigger materialization and return data to the driver. Driver
// transfer volume is deliberately *not* added to the shuffle-read metrics:
// Spark's remote/local shuffle-read counters (which Figure 4 of the paper
// reports) exclude collect traffic, and so do we. CSTF only ever collects
// rank-sized aggregates, so the modeled time impact is negligible.

// Collect returns every record, concatenated in partition order.
func Collect[T any](d *Dataset[T]) []T {
	parts := d.materialize()
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	counts := make([]int, len(parts))
	for p, recs := range parts {
		out = append(out, recs...)
		counts[p] = len(recs)
	}
	narrowTasks(d.ctx, counts, opts{costFactor: 1})
	return out
}

// CollectMap gathers a keyed dataset into a driver-side map. Later
// occurrences of a key overwrite earlier ones (use after ReduceByKey, where
// keys are unique).
func CollectMap[K comparable, V any](d *Dataset[KV[K, V]]) map[K]V {
	recs := Collect(d)
	m := make(map[K]V, len(recs))
	for i := range recs {
		m[recs[i].Key] = recs[i].Val
	}
	return m
}

// Count returns the number of records.
func Count[T any](d *Dataset[T]) int {
	parts := d.materialize()
	var n int
	counts := make([]int, len(parts))
	for p, recs := range parts {
		n += len(recs)
		counts[p] = len(recs)
	}
	narrowTasks(d.ctx, counts, opts{costFactor: 1})
	return n
}

// Aggregate folds every record into a per-partition accumulator with seq,
// then merges the accumulators on the driver with comb (Spark's
// treeAggregate, depth 1). flopsPerSeq is charged per record on the
// executors; the driver-side merge of rank-sized accumulators is charged as
// driver flops by the caller if it matters.
func Aggregate[T, A any](d *Dataset[T], zero func() A, seq func(A, T) A, comb func(A, A) A, flopsPerSeq float64) A {
	parts := d.materialize()
	ctx := d.ctx
	P := ctx.Parts
	accs := make([]A, P)
	counts := make([]int, P)
	ctx.Cluster.Parallel(P, func(p int) {
		acc := zero()
		for i := range parts[p] {
			acc = seq(acc, parts[p][i])
		}
		accs[p] = acc
		counts[p] = len(parts[p])
	})
	narrowTasks(ctx, counts, opts{costFactor: 1, flopsPerRecord: flopsPerSeq})
	res := zero()
	for p := 0; p < P; p++ {
		res = comb(res, accs[p])
	}
	return res
}
