package rdd

import "cstf/internal/cluster"

// shuffle redistributes keyed records so that every record lands in
// partition HashKey(key) % Parts, and returns per-destination cost tasks.
// Bytes are classified remote/local by comparing the source and destination
// hosts, mirroring Spark's shuffle-read metrics; every shuffled record also
// pays the profile's per-record serialization overhead.
func shuffle[K comparable, V any](ctx *Context, in [][]KV[K, V], sizeOf func(KV[K, V]) int) ([][]KV[K, V], []cluster.Task) {
	P := ctx.Parts
	buckets := make([][][]KV[K, V], P) // [src][dst]
	bytes := make([][]float64, P)      // [src][dst]
	overhead := float64(ctx.Cluster.Profile.RecordOverhead)

	ctx.Cluster.Parallel(P, func(src int) {
		bk := make([][]KV[K, V], P)
		by := make([]float64, P)
		for i := range in[src] {
			rec := in[src][i]
			dst := int(HashKey(rec.Key) % uint64(P))
			bk[dst] = append(bk[dst], rec)
			by[dst] += float64(sizeOf(rec)) + overhead
		}
		buckets[src] = bk
		bytes[src] = by
	})

	out := make([][]KV[K, V], P)
	tasks := make([]cluster.Task, P)
	ctx.Cluster.Parallel(P, func(dst int) {
		node := ctx.Cluster.NodeOf(dst)
		var recs []KV[K, V]
		var remote, local, count float64
		for src := 0; src < P; src++ {
			recs = append(recs, buckets[src][dst]...)
			count += float64(len(buckets[src][dst]))
			if ctx.Cluster.NodeOf(src) == node {
				local += bytes[src][dst]
			} else {
				remote += bytes[src][dst]
			}
		}
		out[dst] = recs
		tasks[dst] = cluster.Task{Node: node, Records: count, RemoteBytes: remote, LocalBytes: local}
	})
	return out, tasks
}

// PartitionBy hash-partitions a keyed dataset (one shuffle). A dataset that
// is already key-partitioned is returned unchanged, as Spark does when the
// target partitioner equals the current one.
func PartitionBy[K comparable, V any](d *Dataset[KV[K, V]], os ...Option) *Dataset[KV[K, V]] {
	if d.keyed {
		return d
	}
	o := applyOpts("partitionBy", os)
	out := newDataset[KV[K, V]](d.ctx, o.name, d.sizeOf)
	out.keyed = true
	out.compute = func() [][]KV[K, V] {
		in := d.materialize()
		rc := o.costFactor * d.readCost()
		parts, tasks := shuffle(d.ctx, in, d.sizeOf)
		for i := range tasks {
			tasks[i].Flops = o.flopsPerRecord * tasks[i].Records
			tasks[i].Records *= rc
		}
		d.ctx.runOutputStage(true, tasks)
		return parts
	}
	return out
}

// ReduceByKey merges all values sharing a key with the associative,
// commutative combine function. Like Spark, it combines map-side first,
// shuffles the combined records, then reduces on the destination. A dataset
// already partitioned by key reduces without any shuffle (narrow stage).
// The output is hash-partitioned by key.
func ReduceByKey[K comparable, V any](d *Dataset[KV[K, V]], combine func(V, V) V, os ...Option) *Dataset[KV[K, V]] {
	o := applyOpts("reduceByKey", os)
	out := newDataset[KV[K, V]](d.ctx, o.name, d.sizeOf)
	out.keyed = true
	out.compute = func() [][]KV[K, V] {
		in := d.materialize()
		ctx := d.ctx
		P := ctx.Parts

		// foldParts combines records key-wise within each partition,
		// returning the combined partitions and the number of combine
		// invocations per partition (which is what flops are charged on:
		// reducing n records of one key costs n-1 combines).
		foldParts := func(parts [][]KV[K, V]) ([][]KV[K, V], []float64) {
			outParts := make([][]KV[K, V], P)
			merges := make([]float64, P)
			ctx.Cluster.Parallel(P, func(p int) {
				m := make(map[K]V, len(parts[p]))
				order := make([]K, 0, len(parts[p]))
				var nm float64
				for i := range parts[p] {
					rec := parts[p][i]
					if cur, ok := m[rec.Key]; ok {
						m[rec.Key] = combine(cur, rec.Val)
						nm++
					} else {
						m[rec.Key] = rec.Val
						order = append(order, rec.Key)
					}
				}
				recs := make([]KV[K, V], 0, len(m))
				for _, k := range order {
					recs = append(recs, KV[K, V]{Key: k, Val: m[k]})
				}
				outParts[p] = recs
				merges[p] = nm
			})
			return outParts, merges
		}

		rc := o.costFactor * d.readCost()
		if d.keyed {
			// Already partitioned by key: a single narrow reduce, no
			// map-side pre-combine needed, no shuffle.
			combined, merges := foldParts(in)
			tasks := make([]cluster.Task, P)
			for p := range tasks {
				tasks[p] = cluster.Task{
					Node:    ctx.Cluster.NodeOf(p),
					Records: rc * float64(len(in[p])),
					Flops:   o.flopsPerRecord * merges[p],
				}
			}
			ctx.runOutputStage(false, tasks)
			return combined
		}

		// Map-side combine within each source partition (narrow).
		combined, mapMerges := foldParts(in)
		mapTasks := make([]cluster.Task, P)
		for p := range mapTasks {
			mapTasks[p] = cluster.Task{
				Node:    ctx.Cluster.NodeOf(p),
				Records: rc * float64(len(in[p])),
				Flops:   o.flopsPerRecord * mapMerges[p],
			}
		}
		ctx.Cluster.RunStage(false, mapTasks)

		// Shuffle the combined records and reduce on the destination (wide).
		shuffled, tasks := shuffle(ctx, combined, d.sizeOf)
		final, redMerges := foldParts(shuffled)
		for p := range tasks {
			tasks[p].Flops = o.flopsPerRecord * redMerges[p]
			tasks[p].Records *= o.costFactor
		}
		ctx.runOutputStage(true, tasks)
		return final
	}
	return out
}

// Join inner-joins two keyed datasets. Sides that are not already
// hash-partitioned by key are shuffled; a join of two co-partitioned
// datasets is a narrow (shuffle-free) stage, the placement CSTF engineers
// for factor-matrix joins. The output pairs every left value with every
// matching right value and is hash-partitioned by key.
func Join[K comparable, V, W any](a *Dataset[KV[K, V]], b *Dataset[KV[K, W]], sizeOf func(KV[K, Pair[V, W]]) int, os ...Option) *Dataset[KV[K, Pair[V, W]]] {
	if a.ctx != b.ctx {
		panic("rdd: join across contexts")
	}
	o := applyOpts("join", os)
	out := newDataset[KV[K, Pair[V, W]]](a.ctx, o.name, sizeOf)
	out.keyed = true
	out.compute = func() [][]KV[K, Pair[V, W]] {
		ctx := a.ctx
		P := ctx.Parts
		inA := a.materialize()
		inB := b.materialize()

		tasks := make([]cluster.Task, P)
		for p := range tasks {
			tasks[p].Node = ctx.Cluster.NodeOf(p)
		}
		wide := false
		if !a.keyed {
			wide = true
			var ta []cluster.Task
			inA, ta = shuffle(ctx, inA, a.sizeOf)
			for p := range tasks {
				tasks[p].Records += ta[p].Records
				tasks[p].RemoteBytes += ta[p].RemoteBytes
				tasks[p].LocalBytes += ta[p].LocalBytes
			}
		} else {
			for p := range tasks {
				tasks[p].Records += float64(len(inA[p]))
			}
		}
		if !b.keyed {
			wide = true
			var tb []cluster.Task
			inB, tb = shuffle(ctx, inB, b.sizeOf)
			for p := range tasks {
				tasks[p].Records += tb[p].Records
				tasks[p].RemoteBytes += tb[p].RemoteBytes
				tasks[p].LocalBytes += tb[p].LocalBytes
			}
		} else {
			for p := range tasks {
				tasks[p].Records += float64(len(inB[p]))
			}
		}

		parts := make([][]KV[K, Pair[V, W]], P)
		ctx.Cluster.Parallel(P, func(p int) {
			right := make(map[K][]W, len(inB[p]))
			for i := range inB[p] {
				rec := inB[p][i]
				right[rec.Key] = append(right[rec.Key], rec.Val)
			}
			var dst []KV[K, Pair[V, W]]
			for i := range inA[p] {
				rec := inA[p][i]
				for _, w := range right[rec.Key] {
					dst = append(dst, KV[K, Pair[V, W]]{Key: rec.Key, Val: Pair[V, W]{A: rec.Val, B: w}})
				}
			}
			parts[p] = dst
		})
		for p := range tasks {
			tasks[p].Flops = o.flopsPerRecord * tasks[p].Records
			tasks[p].Records *= o.costFactor
		}
		ctx.runOutputStage(wide, tasks)
		return parts
	}
	return out
}
