// Package rdd implements the Spark-style dataset engine CSTF runs on:
// typed, partitioned, lazily materialized datasets with narrow
// transformations (map, mapValues), wide transformations backed by
// hash shuffles (partitionBy, join, reduceByKey), persist/unpersist
// caching, and actions (collect, count, aggregate).
//
// Execution is real — partition closures run the actual arithmetic on a
// host goroutine pool — while time and traffic are charged to the simulated
// cluster (internal/cluster). Shuffle bytes are classified remote vs local
// by comparing the source and destination partitions' host nodes, exactly
// like Spark's shuffle-read metrics that the paper's Section 6.5 reports.
//
// Deliberate deviation from Spark: a materialized dataset is memoized even
// when not persisted (its cost is charged exactly once), rather than being
// recomputed from lineage on reuse. Every algorithm in this repository
// persists anything it reads twice, so the accounting is identical; the
// memoization only prevents accidental recompute storms.
package rdd

import (
	"fmt"

	"cstf/internal/cluster"
)

// KV is a key-value record, the unit of Spark's pair-RDD operations.
type KV[K comparable, V any] struct {
	Key K
	Val V
}

// Pair is the value type produced by Join.
type Pair[A, B any] struct {
	A A
	B B
}

// Context owns the simulated cluster and the partitioning discipline.
// All datasets of one computation share a context, so co-partitioned joins
// line up (same partition count, same key hash).
type Context struct {
	Cluster *cluster.Cluster
	Parts   int // partitions per dataset
	nextID  int

	resilient bool                     // lineage recovery enabled (EnableRecovery)
	registry  map[recoverable]struct{} // persisted datasets exposed to node crashes
	needPart  []bool                   // during recovery: partitions whose cost to charge
}

// recoverable is the registry's view of a persisted dataset of any type.
type recoverable interface {
	loseNode(node int)
}

// EnableRecovery subscribes the context to the cluster's node-crash events:
// a crash drops every persisted partition hosted on the dead node, and lost
// partitions are recomputed from retained lineage (under the "Recovery"
// phase, charging only the rebuilt partitions) the next time they are read.
//
// Scope of the fault model: only *persisted* partitions are exposed to
// crashes. Materialized-but-unpersisted intermediates stay memoized, which
// models shuffle files and driver-held results surviving on healthy nodes —
// an extension of the package's documented memoization deviation. After
// recovery is enabled, Unpersist retires a dataset permanently (its lineage
// and data are dropped); reading it afterwards panics.
func (ctx *Context) EnableRecovery() {
	if ctx.resilient {
		return
	}
	ctx.resilient = true
	ctx.registry = map[recoverable]struct{}{}
	ctx.Cluster.OnNodeCrash(func(node int) {
		for d := range ctx.registry {
			d.loseNode(node)
		}
	})
}

// runOutputStage charges a stage whose tasks are indexed by destination
// partition. During lineage recovery, only the partitions being rebuilt are
// charged; everywhere else it is RunStage.
func (ctx *Context) runOutputStage(wide bool, tasks []cluster.Task) {
	if ctx.needPart != nil && len(tasks) == ctx.Parts {
		filtered := make([]cluster.Task, 0, len(tasks))
		for p := range tasks {
			if ctx.needPart[p] {
				filtered = append(filtered, tasks[p])
			}
		}
		tasks = filtered
	}
	ctx.Cluster.RunStage(wide, tasks)
}

// NewContext creates an execution context with the given partition count.
// Spark guidance is 2-3 tasks per core; experiments use nodes*cores.
func NewContext(c *cluster.Cluster, parts int) *Context {
	if parts <= 0 {
		panic("rdd: partition count must be positive")
	}
	return &Context{Cluster: c, Parts: parts}
}

func (ctx *Context) id() int {
	ctx.nextID++
	return ctx.nextID
}

// Dataset is a partitioned collection of T records (an RDD).
type Dataset[T any] struct {
	ctx    *Context
	name   string
	sizeOf func(T) int // wire size of one record, for shuffle accounting

	parts    [][]T
	computed bool
	compute  func() [][]T // nil after materialization (releases lineage)

	keyed      bool // hash-partitioned by key (KV datasets only)
	cached     bool
	serialized bool // cached at the serialized storage level

	// Fault-recovery state (resilient contexts only).
	lineage   func() [][]T // retained compute closure for recomputation
	lost      []bool       // partitions destroyed by a node crash
	lostCount int
	retired   bool // unpersisted and dropped; reads are a bug
}

// Name returns the dataset's debug name.
func (d *Dataset[T]) Name() string { return d.name }

// Parts returns the partition count.
func (d *Dataset[T]) Parts() int { return d.ctx.Parts }

// Context returns the owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

func newDataset[T any](ctx *Context, name string, sizeOf func(T) int) *Dataset[T] {
	if sizeOf == nil {
		panic("rdd: nil sizeOf for dataset " + name)
	}
	return &Dataset[T]{ctx: ctx, name: fmt.Sprintf("%s#%d", name, ctx.id()), sizeOf: sizeOf}
}

// materialize computes the dataset if needed and returns its partitions.
// On resilient contexts it also rebuilds any partitions lost to a node
// crash before handing data to the caller.
func (d *Dataset[T]) materialize() [][]T {
	if d.retired {
		panic("rdd: dataset read after Unpersist retired it: " + d.name)
	}
	if !d.computed {
		if d.compute == nil {
			panic("rdd: dataset has neither data nor lineage: " + d.name)
		}
		if d.ctx.resilient {
			// Keep the closure so lost partitions can be recomputed; the
			// chain is broken when the dataset is unpersisted (retired).
			d.lineage = d.compute
		}
		d.parts = d.compute()
		if len(d.parts) != d.ctx.Parts {
			panic("rdd: compute returned wrong partition count for " + d.name)
		}
		d.computed = true
		d.compute = nil // release lineage so old iterations can be collected
	}
	if d.lostCount > 0 {
		d.recover()
	}
	return d.parts
}

// loseNode implements recoverable: a node crash destroys every partition of
// this (persisted) dataset hosted on the dead node. Called at a stage
// boundary, never mid-closure, so no in-flight stage observes nil data.
func (d *Dataset[T]) loseNode(node int) {
	if !d.computed || d.retired {
		return
	}
	for p := range d.parts {
		if d.ctx.Cluster.NodeOf(p) == node && !d.lost[p] {
			d.parts[p] = nil
			d.lost[p] = true
			d.lostCount++
		}
	}
}

// recover rebuilds the lost partitions by re-running the retained lineage
// closure under the Recovery phase. The recompute executes in full on the
// host (ancestors are memoized or themselves recovering), but only the lost
// partitions' modeled cost is charged, via the context's needPart filter;
// recovered cached partitions are re-charged to executor memory on the
// replacement node.
func (d *Dataset[T]) recover() {
	if d.lineage == nil {
		panic("rdd: lost partitions but no lineage retained: " + d.name)
	}
	ctx := d.ctx
	cl := ctx.Cluster
	oldPhase := cl.Phase()
	cl.SetPhase(cluster.PhaseRecovery)
	oldNeed := ctx.needPart
	need := make([]bool, ctx.Parts)
	recovered := 0
	for p, l := range d.lost {
		if l {
			need[p] = true
			recovered++
		}
	}
	ctx.needPart = need
	parts := d.lineage()
	ctx.needPart = oldNeed
	cl.SetPhase(oldPhase)

	for p := range d.lost {
		if !d.lost[p] {
			continue
		}
		d.parts[p] = parts[p]
		d.lost[p] = false
		if d.cached {
			var b float64
			for i := range parts[p] {
				b += float64(d.sizeOf(parts[p][i]))
			}
			if d.serialized {
				cl.AddCachedSerialized(p, b)
			} else {
				cl.AddCached(p, b)
			}
		}
	}
	d.lostCount = 0
	cl.NoteRecomputed(recovered)
}

// Eval forces materialization (running any pending lineage now, under the
// cluster's current metrics phase) without the extra read stage an action
// like Count would add. Algorithms use it to pin a computation to the
// phase label it belongs to, the way Spark's UI attributes stages to jobs.
func (d *Dataset[T]) Eval() *Dataset[T] {
	d.materialize()
	return d
}

// Persist marks the dataset as cached in executor memory at the RAW
// (deserialized) storage level, the choice CSTF makes for iterative tensor
// algorithms (Section 4.1, "Caching"): fast reads, larger footprint. The
// dataset is materialized now and its bytes are charged to the hosting
// nodes' memory, feeding the GC-pressure term of the cost model. Returns d
// for chaining.
func (d *Dataset[T]) Persist() *Dataset[T] {
	return d.persist(false)
}

// PersistSerialized caches at the SERIALIZED storage level
// (MEMORY_ONLY_SER): the footprint is the wire size, but every downstream
// read of the cached partitions pays a per-record decode cost. The paper
// discusses this trade-off and picks raw caching; the ablation experiment
// measures both.
func (d *Dataset[T]) PersistSerialized() *Dataset[T] {
	return d.persist(true)
}

func (d *Dataset[T]) persist(serialized bool) *Dataset[T] {
	d.materialize()
	if d.cached {
		return d
	}
	d.cached = true
	d.serialized = serialized
	if d.ctx.resilient {
		// Persisted partitions live in executor memory, so they are the
		// ones a node crash destroys; expose them to the crash listener.
		if d.lost == nil {
			d.lost = make([]bool, d.ctx.Parts)
		}
		d.ctx.registry[d] = struct{}{}
	}
	for p := range d.parts {
		var b float64
		for i := range d.parts[p] {
			b += float64(d.sizeOf(d.parts[p][i]))
		}
		if serialized {
			d.ctx.Cluster.AddCachedSerialized(p, b)
		} else {
			d.ctx.Cluster.AddCached(p, b)
		}
	}
	return d
}

// readCost is the per-record cost multiplier downstream operations pay to
// read this dataset's partitions (decoding serialized cached data).
func (d *Dataset[T]) readCost() float64 {
	if d.cached && d.serialized {
		if f := d.ctx.Cluster.Profile.DeserFactor; f > 0 {
			return f
		}
	}
	return 1
}

// Unpersist releases the dataset's claim on executor memory. CSTF-QCOO
// calls this on the previous MTTKRP's queue RDD (Section 4.2, "Caching").
// On a resilient context, unpersisting also retires the dataset — its data
// and lineage are dropped for good (the engine's convention is that an
// unpersisted dataset is never read again), which is what keeps retained
// lineage chains from pinning every past iteration in memory.
func (d *Dataset[T]) Unpersist() {
	if !d.cached {
		return
	}
	d.cached = false
	for p := range d.parts {
		var b float64
		for i := range d.parts[p] {
			b += float64(d.sizeOf(d.parts[p][i]))
		}
		if d.serialized {
			d.ctx.Cluster.AddCachedSerialized(p, -b)
		} else {
			d.ctx.Cluster.AddCached(p, -b)
		}
	}
	d.serialized = false
	if d.ctx.resilient {
		delete(d.ctx.registry, recoverable(d))
		d.retired = true
		d.parts = nil
		d.lineage = nil
		d.lost = nil
		d.lostCount = 0
	}
}

// FixedSize returns a sizeOf function reporting n bytes per record.
func FixedSize[T any](n int) func(T) int { return func(T) int { return n } }

// FromSlice distributes data round-robin over the context's partitions.
// The placement is arbitrary-but-deterministic, like loading an unsorted
// file from distributed storage.
func FromSlice[T any](ctx *Context, name string, data []T, sizeOf func(T) int) *Dataset[T] {
	d := newDataset[T](ctx, name, sizeOf)
	d.compute = func() [][]T {
		parts := make([][]T, ctx.Parts)
		per := (len(data) + ctx.Parts - 1) / ctx.Parts
		for p := range parts {
			parts[p] = make([]T, 0, per)
		}
		for i, rec := range data {
			p := i % ctx.Parts
			parts[p] = append(parts[p], rec)
		}
		// Charge a narrow load stage: every record is read once.
		tasks := make([]cluster.Task, ctx.Parts)
		for p := range tasks {
			tasks[p] = cluster.Task{Node: ctx.Cluster.NodeOf(p), Records: float64(len(parts[p]))}
		}
		ctx.runOutputStage(false, tasks)
		return parts
	}
	return d
}

// GenerateKeyed builds a dataset whose partition p holds exactly the
// records perPart(p) returns, and declares it hash-partitioned by key. The
// generator must emit only keys k with HashKey(k)%Parts == p; this is
// checked. CSTF uses it to create initial factor matrices in place on every
// node from a stateless seeded generator, with no load or broadcast step.
func GenerateKeyed[K comparable, V any](ctx *Context, name string, perPart func(p int) []KV[K, V], sizeOf func(KV[K, V]) int) *Dataset[KV[K, V]] {
	d := newDataset[KV[K, V]](ctx, name, sizeOf)
	d.keyed = true
	d.compute = func() [][]KV[K, V] {
		parts := make([][]KV[K, V], ctx.Parts)
		ctx.Cluster.Parallel(ctx.Parts, func(p int) {
			recs := perPart(p)
			for i := range recs {
				if int(HashKey(recs[i].Key)%uint64(ctx.Parts)) != p {
					panic("rdd: GenerateKeyed produced a key outside its partition")
				}
			}
			parts[p] = recs
		})
		tasks := make([]cluster.Task, ctx.Parts)
		for p := range tasks {
			tasks[p] = cluster.Task{Node: ctx.Cluster.NodeOf(p), Records: float64(len(parts[p]))}
		}
		ctx.runOutputStage(false, tasks)
		return parts
	}
	return d
}
