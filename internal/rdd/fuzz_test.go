package rdd

import (
	"sort"
	"testing"
	"testing/quick"

	"cstf/internal/cluster"
	"cstf/internal/rng"
)

// Randomized pipeline equivalence: a random chain of transformations is
// applied both through the engine (with random node/partition counts, so
// shuffles genuinely move data) and through a plain in-memory reference.
// The resulting multisets must be identical — partitioning, shuffling, and
// cost accounting must never change the data.

type refRec struct {
	Key uint32
	Val int64
}

func refSort(rs []refRec) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Key != rs[j].Key {
			return rs[i].Key < rs[j].Key
		}
		return rs[i].Val < rs[j].Val
	})
}

func TestRandomPipelineEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		nodes := 1 + src.Intn(6)
		parts := nodes * (1 + src.Intn(3))
		ctx := NewContext(cluster.New(nodes, cluster.LaptopProfile()), parts)

		n := 50 + src.Intn(400)
		keySpace := uint32(1 + src.Intn(40))
		ref := make([]refRec, n)
		recs := make([]KV[uint32, int64], n)
		for i := range recs {
			k := uint32(src.Intn(int(keySpace)))
			v := int64(src.Intn(1000)) - 500
			recs[i] = KV[uint32, int64]{Key: k, Val: v}
			ref[i] = refRec{Key: k, Val: v}
		}
		d := FromSlice(ctx, "fuzz", recs, FixedSize[KV[uint32, int64]](16))

		steps := 1 + src.Intn(6)
		for s := 0; s < steps; s++ {
			switch src.Intn(4) {
			case 0: // map: shift value, rotate key
				shift := int64(src.Intn(7)) - 3
				d = Map(d, func(r KV[uint32, int64]) KV[uint32, int64] {
					return KV[uint32, int64]{Key: (r.Key + 1) % keySpace, Val: r.Val + shift}
				}, FixedSize[KV[uint32, int64]](16))
				for i := range ref {
					ref[i] = refRec{Key: (ref[i].Key + 1) % keySpace, Val: ref[i].Val + shift}
				}
			case 1: // partitionBy (pure movement, no data change)
				d = PartitionBy(d)
			case 2: // reduceByKey (sum)
				d = ReduceByKey(d, func(a, b int64) int64 { return a + b })
				sums := map[uint32]int64{}
				for _, r := range ref {
					sums[r.Key] += r.Val
				}
				ref = ref[:0]
				for k, v := range sums {
					ref = append(ref, refRec{Key: k, Val: v})
				}
			case 3: // mapValues
				d = MapValues(d, func(v int64) int64 { return -v }, FixedSize[KV[uint32, int64]](16))
				for i := range ref {
					ref[i].Val = -ref[i].Val
				}
			}
		}

		got := Collect(d)
		if len(got) != len(ref) {
			return false
		}
		gr := make([]refRec, len(got))
		for i, r := range got {
			gr[i] = refRec{Key: r.Key, Val: r.Val}
		}
		refSort(gr)
		refSort(ref)
		for i := range ref {
			if gr[i] != ref[i] {
				return false
			}
		}
		// Invariant: metrics are internally consistent after any pipeline.
		m := ctx.Cluster.Metrics()
		if nodes == 1 && m.TotalRemoteBytes() != 0 {
			return false
		}
		return m.TotalSimTime() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Joins against a reference implementation under random inputs.
func TestRandomJoinEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		nodes := 1 + src.Intn(5)
		ctx := NewContext(cluster.New(nodes, cluster.LaptopProfile()), nodes*2)
		keySpace := 1 + src.Intn(25)

		mk := func(n int) ([]KV[uint32, int64], []refRec) {
			recs := make([]KV[uint32, int64], n)
			ref := make([]refRec, n)
			for i := range recs {
				k := uint32(src.Intn(keySpace))
				v := int64(src.Intn(500))
				recs[i] = KV[uint32, int64]{Key: k, Val: v}
				ref[i] = refRec{Key: k, Val: v}
			}
			return recs, ref
		}
		ra, refA := mk(20 + src.Intn(100))
		rb, refB := mk(20 + src.Intn(100))
		a := FromSlice(ctx, "a", ra, FixedSize[KV[uint32, int64]](16))
		b := FromSlice(ctx, "b", rb, FixedSize[KV[uint32, int64]](16))
		if src.Intn(2) == 0 {
			a = PartitionBy(a)
		}
		if src.Intn(2) == 0 {
			b = PartitionBy(b)
		}

		got := Collect(Join(a, b, FixedSize[KV[uint32, Pair[int64, int64]]](24)))

		// Reference nested-loop join.
		type pair struct{ k, x, y int64 }
		var want []pair
		for _, x := range refA {
			for _, y := range refB {
				if x.Key == y.Key {
					want = append(want, pair{int64(x.Key), x.Val, y.Val})
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		gp := make([]pair, len(got))
		for i, r := range got {
			gp[i] = pair{int64(r.Key), r.Val.A, r.Val.B}
		}
		less := func(a, b pair) bool {
			if a.k != b.k {
				return a.k < b.k
			}
			if a.x != b.x {
				return a.x < b.x
			}
			return a.y < b.y
		}
		sort.Slice(gp, func(i, j int) bool { return less(gp[i], gp[j]) })
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		for i := range want {
			if gp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Shuffle byte conservation holds for every random workload: bytes sent
// equal bytes received (remote + local equals the sum of record sizes
// with overhead).
func TestRandomShuffleByteConservation(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		nodes := 1 + src.Intn(8)
		ctx := NewContext(cluster.New(nodes, cluster.LaptopProfile()), nodes+src.Intn(8))
		n := src.Intn(500)
		recs := make([]KV[uint32, int64], n)
		for i := range recs {
			recs[i] = KV[uint32, int64]{Key: uint32(src.Intn(100)), Val: int64(i)}
		}
		d := FromSlice(ctx, "kv", recs, FixedSize[KV[uint32, int64]](16))
		Count(PartitionBy(d))
		m := ctx.Cluster.Metrics()
		want := float64(n) * float64(16+ctx.Cluster.Profile.RecordOverhead)
		return m.TotalRemoteBytes()+m.TotalLocalBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
