package rdd

import (
	"sort"
	"testing"

	"cstf/internal/cluster"
)

func testCtx(nodes, parts int) *Context {
	return NewContext(cluster.New(nodes, cluster.LaptopProfile()), parts)
}

func intSize(int) int { return 8 }

func kvSize(KV[uint32, int]) int { return 16 }

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	ctx := testCtx(4, 8)
	d := FromSlice(ctx, "nums", seq(100), intSize)
	got := Collect(d)
	if len(got) != 100 {
		t.Fatalf("collected %d records", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing record %d", i)
		}
	}
}

func TestCountAndEmptyDataset(t *testing.T) {
	ctx := testCtx(2, 4)
	if n := Count(FromSlice(ctx, "e", []int{}, intSize)); n != 0 {
		t.Fatalf("empty count = %d", n)
	}
	if n := Count(FromSlice(ctx, "n", seq(17), intSize)); n != 17 {
		t.Fatalf("count = %d", n)
	}
}

func TestMap(t *testing.T) {
	ctx := testCtx(2, 4)
	d := FromSlice(ctx, "nums", seq(10), intSize)
	got := Collect(Map(d, func(x int) int { return 2 * x }, intSize))
	sort.Ints(got)
	want := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPartitionByPlacesKeysCorrectly(t *testing.T) {
	ctx := testCtx(4, 8)
	recs := make([]KV[uint32, int], 200)
	for i := range recs {
		recs[i] = KV[uint32, int]{Key: uint32(i % 50), Val: i}
	}
	d := FromSlice(ctx, "kv", recs, kvSize)
	if d.keyed {
		t.Fatal("FromSlice output must not claim key partitioning")
	}
	pd := PartitionBy(d)
	if !pd.keyed {
		t.Fatal("PartitionBy output must be key-partitioned")
	}
	parts := pd.materialize()
	for p, part := range parts {
		for _, rec := range part {
			if PartitionOf(rec.Key, ctx.Parts) != p {
				t.Fatalf("key %d in wrong partition %d", rec.Key, p)
			}
		}
	}
	// Idempotent: partitioning an already-partitioned dataset is a no-op.
	if PartitionBy(pd) != pd {
		t.Fatal("PartitionBy must be identity on key-partitioned input")
	}
}

func TestShuffleByteConservationAndClassification(t *testing.T) {
	// With all data on one node of a 1-node cluster, every byte is local;
	// totals must equal records * (size + overhead).
	one := NewContext(cluster.New(1, cluster.LaptopProfile()), 4)
	recs := make([]KV[uint32, int], 100)
	for i := range recs {
		recs[i] = KV[uint32, int]{Key: uint32(i), Val: i}
	}
	d := FromSlice(one, "kv", recs, kvSize)
	Count(PartitionBy(d))
	m := one.Cluster.Metrics()
	if m.TotalRemoteBytes() != 0 {
		t.Fatalf("single node cluster read %v remote bytes", m.TotalRemoteBytes())
	}
	perRec := float64(16 + one.Cluster.Profile.RecordOverhead)
	if got, want := m.TotalLocalBytes(), 100*perRec; got != want {
		t.Fatalf("local bytes %v, want %v", got, want)
	}

	// On a multi-node cluster, remote + local must equal the same total.
	multi := NewContext(cluster.New(4, cluster.LaptopProfile()), 8)
	d2 := FromSlice(multi, "kv", recs, kvSize)
	Count(PartitionBy(d2))
	m2 := multi.Cluster.Metrics()
	if got := m2.TotalRemoteBytes() + m2.TotalLocalBytes(); got != 100*perRec {
		t.Fatalf("byte conservation broken: %v != %v", got, 100*perRec)
	}
	if m2.TotalRemoteBytes() == 0 {
		t.Fatal("4-node shuffle should move some bytes remotely")
	}
	if m2.TotalShuffles() != 1 {
		t.Fatalf("shuffles = %d, want 1", m2.TotalShuffles())
	}
}

func TestReduceByKeySums(t *testing.T) {
	ctx := testCtx(3, 6)
	var recs []KV[uint32, int]
	for i := 0; i < 300; i++ {
		recs = append(recs, KV[uint32, int]{Key: uint32(i % 10), Val: 1})
	}
	d := FromSlice(ctx, "kv", recs, kvSize)
	red := ReduceByKey(d, func(a, b int) int { return a + b })
	got := CollectMap(red)
	if len(got) != 10 {
		t.Fatalf("got %d keys", len(got))
	}
	for k, v := range got {
		if v != 30 {
			t.Fatalf("key %d count %d, want 30", k, v)
		}
	}
	if !red.keyed {
		t.Fatal("reduceByKey output must be key-partitioned")
	}
}

func TestReduceByKeyOnPartitionedInputIsNarrow(t *testing.T) {
	ctx := testCtx(4, 8)
	var recs []KV[uint32, int]
	for i := 0; i < 100; i++ {
		recs = append(recs, KV[uint32, int]{Key: uint32(i % 7), Val: i})
	}
	pd := PartitionBy(FromSlice(ctx, "kv", recs, kvSize))
	Count(pd)
	before := ctx.Cluster.Metrics()
	red := ReduceByKey(pd, func(a, b int) int { return a + b })
	Count(red)
	diff := ctx.Cluster.Metrics().Sub(before)
	if diff.TotalShuffles() != 0 {
		t.Fatalf("reduce on co-partitioned input caused %d shuffles", diff.TotalShuffles())
	}
	if diff.TotalRemoteBytes() != 0 || diff.TotalLocalBytes() != 0 {
		t.Fatal("narrow reduce must not read shuffle bytes")
	}
}

func TestReduceByKeyMapSideCombineShrinksShuffle(t *testing.T) {
	// 1000 records, 2 keys: map-side combine must shuffle at most
	// parts*keys records, far fewer than 1000.
	ctx := testCtx(4, 4)
	var recs []KV[uint32, int]
	for i := 0; i < 1000; i++ {
		recs = append(recs, KV[uint32, int]{Key: uint32(i % 2), Val: 1})
	}
	d := FromSlice(ctx, "kv", recs, kvSize)
	got := CollectMap(ReduceByKey(d, func(a, b int) int { return a + b }))
	if got[0] != 500 || got[1] != 500 {
		t.Fatalf("sums wrong: %v", got)
	}
	m := ctx.Cluster.Metrics()
	perRec := float64(16 + ctx.Cluster.Profile.RecordOverhead)
	maxBytes := float64(4*2) * perRec // parts * keys
	if total := m.TotalRemoteBytes() + m.TotalLocalBytes(); total > maxBytes {
		t.Fatalf("shuffled %v bytes; map-side combine should cap at %v", total, maxBytes)
	}
}

func TestJoinInner(t *testing.T) {
	ctx := testCtx(3, 6)
	left := FromSlice(ctx, "l", []KV[uint32, int]{{1, 10}, {2, 20}, {3, 30}, {7, 70}}, kvSize)
	right := FromSlice(ctx, "r", []KV[uint32, int]{{1, 100}, {2, 200}, {3, 300}, {9, 900}}, kvSize)
	j := Join(left, right, FixedSize[KV[uint32, Pair[int, int]]](24))
	got := Collect(j)
	if len(got) != 3 {
		t.Fatalf("joined %d records, want 3 (inner join)", len(got))
	}
	for _, rec := range got {
		if rec.Val.B != rec.Val.A*10 {
			t.Fatalf("mismatched pair %+v", rec)
		}
	}
	if !j.keyed {
		t.Fatal("join output must be key-partitioned")
	}
}

func TestJoinDuplicateRightKeysFanOut(t *testing.T) {
	ctx := testCtx(2, 4)
	left := FromSlice(ctx, "l", []KV[uint32, int]{{5, 1}}, kvSize)
	right := FromSlice(ctx, "r", []KV[uint32, int]{{5, 2}, {5, 3}}, kvSize)
	got := Collect(Join(left, right, FixedSize[KV[uint32, Pair[int, int]]](24)))
	if len(got) != 2 {
		t.Fatalf("expected fan-out to 2 records, got %d", len(got))
	}
}

func TestJoinCoPartitionedIsNarrow(t *testing.T) {
	ctx := testCtx(4, 8)
	mk := func(name string) *Dataset[KV[uint32, int]] {
		var recs []KV[uint32, int]
		for i := 0; i < 64; i++ {
			recs = append(recs, KV[uint32, int]{Key: uint32(i), Val: i})
		}
		return PartitionBy(FromSlice(ctx, name, recs, kvSize))
	}
	a, b := mk("a"), mk("b")
	Count(a)
	Count(b)
	before := ctx.Cluster.Metrics()
	j := Join(a, b, FixedSize[KV[uint32, Pair[int, int]]](24))
	if n := Count(j); n != 64 {
		t.Fatalf("join count %d", n)
	}
	diff := ctx.Cluster.Metrics().Sub(before)
	if diff.TotalShuffles() != 0 || diff.TotalRemoteBytes() != 0 {
		t.Fatalf("co-partitioned join must be narrow: %d shuffles, %v bytes",
			diff.TotalShuffles(), diff.TotalRemoteBytes())
	}
}

func TestJoinOneSideShuffled(t *testing.T) {
	ctx := testCtx(4, 8)
	var recs []KV[uint32, int]
	for i := 0; i < 64; i++ {
		recs = append(recs, KV[uint32, int]{Key: uint32(i), Val: i})
	}
	aligned := PartitionBy(FromSlice(ctx, "a", recs, kvSize))
	Count(aligned)
	before := ctx.Cluster.Metrics()
	loose := FromSlice(ctx, "b", recs, kvSize)
	j := Join(loose, aligned, FixedSize[KV[uint32, Pair[int, int]]](24))
	Count(j)
	diff := ctx.Cluster.Metrics().Sub(before)
	if diff.TotalShuffles() != 1 {
		t.Fatalf("join with one unaligned side: %d shuffles, want 1", diff.TotalShuffles())
	}
	perRec := float64(16 + ctx.Cluster.Profile.RecordOverhead)
	if total := diff.TotalRemoteBytes() + diff.TotalLocalBytes(); total != 64*perRec {
		t.Fatalf("only the unaligned side should move: %v bytes, want %v", total, 64*perRec)
	}
}

func TestMapValuesPreservesPartitioning(t *testing.T) {
	ctx := testCtx(2, 4)
	recs := []KV[uint32, int]{{1, 1}, {2, 2}, {3, 3}}
	pd := PartitionBy(FromSlice(ctx, "kv", recs, kvSize))
	mv := MapValues(pd, func(v int) int { return v * v }, kvSize)
	if !mv.keyed {
		t.Fatal("mapValues must preserve key partitioning")
	}
	got := CollectMap(mv)
	if got[3] != 9 {
		t.Fatalf("mapValues result %v", got)
	}
	// Plain Map must drop the partitioner.
	m := Map(pd, func(r KV[uint32, int]) KV[uint32, int] { return r }, kvSize)
	if m.keyed {
		t.Fatal("map must not preserve key partitioning")
	}
}

func TestGenerateKeyed(t *testing.T) {
	ctx := testCtx(3, 6)
	d := GenerateKeyed(ctx, "gen", func(p int) []KV[uint32, int] {
		var recs []KV[uint32, int]
		for k := uint32(0); k < 60; k++ {
			if PartitionOf(k, ctx.Parts) == p {
				recs = append(recs, KV[uint32, int]{Key: k, Val: int(k)})
			}
		}
		return recs
	}, kvSize)
	if !d.keyed {
		t.Fatal("GenerateKeyed output must be key-partitioned")
	}
	if n := Count(d); n != 60 {
		t.Fatalf("generated %d records", n)
	}
	if ctx.Cluster.Metrics().TotalShuffles() != 0 {
		t.Fatal("generation must not shuffle")
	}
}

func TestGenerateKeyedPanicsOnWrongPartition(t *testing.T) {
	ctx := testCtx(2, 4)
	d := GenerateKeyed(ctx, "bad", func(p int) []KV[uint32, int] {
		return []KV[uint32, int]{{Key: 0, Val: 0}} // key 0 belongs to one partition only
	}, kvSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misplaced key")
		}
	}()
	Count(d)
}

func TestPersistUnpersistCacheAccounting(t *testing.T) {
	ctx := testCtx(2, 4)
	d := FromSlice(ctx, "kv", seq(100), intSize).Persist()
	if !d.cached {
		t.Fatal("persist must mark cached")
	}
	want := 800 * ctx.Cluster.Profile.RawCacheFactor // wire bytes x raw-object factor
	if got := ctx.Cluster.CachedBytes(); got != want {
		t.Fatalf("cached bytes %v, want %v", got, want)
	}
	d.Persist() // idempotent
	if got := ctx.Cluster.CachedBytes(); got != want {
		t.Fatalf("double persist changed accounting: %v", got)
	}
	d.Unpersist()
	if got := ctx.Cluster.CachedBytes(); got != 0 {
		t.Fatalf("unpersist left %v bytes", got)
	}
	d.Unpersist() // idempotent
}

func TestPersistSerializedAccountingAndReadCost(t *testing.T) {
	ctx := testCtx(2, 4)
	d := FromSlice(ctx, "kv", seq(100), intSize).PersistSerialized()
	// Serialized footprint = wire bytes (no raw-object expansion).
	if got := ctx.Cluster.CachedBytes(); got != 800 {
		t.Fatalf("serialized cached bytes %v, want 800", got)
	}
	d.Unpersist()
	if ctx.Cluster.CachedBytes() != 0 {
		t.Fatal("unpersist must release serialized cache")
	}

	// Reading a serialized cache must charge more engine time than reading
	// a raw cache (the DeserFactor).
	run := func(serialized bool) float64 {
		c := cluster.New(2, cluster.LaptopProfile())
		cx := NewContext(c, 4)
		src := FromSlice(cx, "kv", seq(50000), intSize)
		if serialized {
			src.PersistSerialized()
		} else {
			src.Persist()
		}
		base := c.SimTime()
		Count(Map(src, func(x int) int { return x + 1 }, intSize))
		return c.SimTime() - base
	}
	raw, ser := run(false), run(true)
	if ser <= raw {
		t.Fatalf("serialized read (%v) must cost more than raw read (%v)", ser, raw)
	}
}

func TestPersistSerializedSmallerFootprintThanRaw(t *testing.T) {
	mk := func(serialized bool) float64 {
		ctx := testCtx(2, 4)
		d := FromSlice(ctx, "kv", seq(1000), intSize)
		if serialized {
			d.PersistSerialized()
		} else {
			d.Persist()
		}
		return ctx.Cluster.CachedBytes()
	}
	if raw, ser := mk(false), mk(true); ser >= raw {
		t.Fatalf("serialized footprint (%v) must be below raw (%v)", ser, raw)
	}
}

func TestMaterializeChargesOnce(t *testing.T) {
	ctx := testCtx(2, 4)
	d := Map(FromSlice(ctx, "kv", seq(1000), intSize),
		func(x int) int { return x + 1 }, intSize)
	Count(d)
	after1 := ctx.Cluster.SimTime()
	Count(d) // second action: only the count stage itself, no recompute
	after2 := ctx.Cluster.SimTime()
	if after2-after1 >= after1 {
		t.Fatalf("second action recomputed lineage: %v vs %v", after2-after1, after1)
	}
}

func TestAggregate(t *testing.T) {
	ctx := testCtx(3, 5)
	d := FromSlice(ctx, "n", seq(101), intSize)
	sum := Aggregate(d, func() int { return 0 },
		func(a int, x int) int { return a + x },
		func(a, b int) int { return a + b }, 1)
	if sum != 5050 {
		t.Fatalf("aggregate sum %d", sum)
	}
}

func TestWithFlopsCharged(t *testing.T) {
	ctx := testCtx(2, 4)
	d := Map(FromSlice(ctx, "n", seq(100), intSize),
		func(x int) int { return x }, intSize, WithFlops(10))
	Count(d)
	if got := ctx.Cluster.Metrics().TotalFlops(); got != 1000 {
		t.Fatalf("flops = %v, want 1000", got)
	}
}

func TestHashKeyTypes(t *testing.T) {
	if HashKey(uint32(5)) != HashKey(uint32(5)) {
		t.Fatal("hash must be stable")
	}
	if HashKey("abc") == HashKey("abd") {
		t.Fatal("string hash collision on near keys")
	}
	// int and uint64 of the same value must agree with themselves only.
	_ = HashKey(int(7))
	_ = HashKey(int64(-7))
	_ = HashKey(int32(-7))
	_ = HashKey(uint64(7))
	_ = HashKey(uint16(7))
	_ = HashKey(uint8(7))
	defer func() {
		if recover() == nil {
			t.Fatal("unhashable key type must panic")
		}
	}()
	type weird struct{ x int }
	HashKey(weird{1})
}

func TestJoinAcrossContextsPanics(t *testing.T) {
	a := FromSlice(testCtx(2, 2), "a", []KV[uint32, int]{{1, 1}}, kvSize)
	b := FromSlice(testCtx(2, 2), "b", []KV[uint32, int]{{1, 1}}, kvSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-context join")
		}
	}()
	Join(a, b, FixedSize[KV[uint32, Pair[int, int]]](24))
}

func TestNewContextValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero partitions")
		}
	}()
	NewContext(cluster.New(1, cluster.LaptopProfile()), 0)
}
