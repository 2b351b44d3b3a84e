package tensor

import (
	"math"
	"sort"
	"testing"

	"cstf/internal/rng"
)

// The reference implementations below are the serial set-up code the
// chunked generators and the keyed sort replaced: the draw loops on one
// stream, Sort as sort.Slice over entries, and DedupSum's merge over that
// order. The fast paths must match them bit for bit.

func refSort(es []Entry, order int) {
	sort.Slice(es, func(i, j int) bool { return Less(order, &es[i], &es[j]) })
}

func refDedupSum(es []Entry, order int) []Entry {
	if len(es) == 0 {
		return es
	}
	refSort(es, order)
	out := es[:0]
	cur := es[0]
	for _, e := range es[1:] {
		if !Less(order, &cur, &e) && !Less(order, &e, &cur) {
			cur.Val += e.Val
			continue
		}
		if cur.Val != 0 {
			out = append(out, cur)
		}
		cur = e
	}
	if cur.Val != 0 {
		out = append(out, cur)
	}
	return out
}

func refUniformEntries(seed uint64, nnz int, dims []int) []Entry {
	src := rng.New(seed)
	es := make([]Entry, 0, nnz)
	for len(es) < nnz {
		var e Entry
		for m, d := range dims {
			e.Idx[m] = uint32(src.Intn(d))
		}
		e.Val = src.Float64()
		es = append(es, e)
	}
	return es
}

func refZipfEntries(seed uint64, nnz int, theta float64, dims []int) []Entry {
	src := rng.New(seed)
	zipfs := make([]*rng.Zipf, len(dims))
	for m, d := range dims {
		zipfs[m] = rng.NewZipf(d, theta)
	}
	es := make([]Entry, 0, nnz)
	for len(es) < nnz {
		var e Entry
		for m, d := range dims {
			raw := zipfs[m].Next(src)
			e.Idx[m] = uint32(rng.Hash64(seed, uint64(m), uint64(raw)) % uint64(d))
		}
		e.Val = src.Float64()
		es = append(es, e)
	}
	return es
}

// firstDiff returns the first position where got and want differ in any
// index or in the value's bits, or -1 when they are identical.
func firstDiff(got, want []Entry) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if got[i].Idx != want[i].Idx || math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
			return i
		}
	}
	return -1
}

func TestChunkedDrawsMatchSerialLoop(t *testing.T) {
	shapes := [][]int{{7}, {40, 30, 20}, {9, 1, 300, 4, 12}}
	for _, n := range []int{0, 1, drawChunk - 1, drawChunk, drawChunk + 1, 2*drawChunk + 17} {
		for _, dims := range shapes {
			if i := firstDiff(uniformEntries(3, n, dims), refUniformEntries(3, n, dims)); i >= 0 {
				t.Fatalf("uniform nnz %d dims %v: entry %d differs from the serial loop", n, dims, i)
			}
			if i := firstDiff(zipfEntries(4, n, 0.8, dims), refZipfEntries(4, n, 0.8, dims)); i >= 0 {
				t.Fatalf("zipf nnz %d dims %v: entry %d differs from the serial loop", n, dims, i)
			}
		}
	}
	dims := []int{50, 40, 30}
	want := refDedupSum(refZipfEntries(5, 3*drawChunk, 0.9, dims), 3)
	if i := firstDiff(GenZipf(5, 3*drawChunk, 0.9, dims...).Entries, want); i >= 0 {
		t.Fatalf("GenZipf: entry %d differs from the serial draw + reference DedupSum", i)
	}
}

// oracleCase draws nnz entries of the given order. Each mode's indices are
// uniform below its bound (which may exceed what Dims would allow: the
// sort must not care), and values come from a small set of magnitudes
// and signs, so duplicate groups sum to different bits in different orders
// and some cancel to exactly zero.
func oracleCase(seed uint64, nnz int, bounds []int) []Entry {
	src := rng.New(seed)
	vals := []float64{1, -1, 0.5, -0.5, 1e-3, -1e-3, 3e7, -3e7, 0.1, math.Copysign(0, -1)}
	es := make([]Entry, nnz)
	for i := range es {
		for m, b := range bounds {
			es[i].Idx[m] = uint32(src.Uint64() % uint64(b))
		}
		es[i].Val = vals[src.Intn(len(vals))] * (1 + float64(src.Intn(3))*0.3)
	}
	return es
}

func TestKeyedSortMatchesReference(t *testing.T) {
	const max32 = 1 << 32
	type oc struct {
		name   string
		bounds []int
		nnz    int
	}
	var cases []oc
	for order := 1; order <= MaxOrder; order++ {
		tiny, wide := make([]int, order), make([]int, order)
		for m := range tiny {
			tiny[m] = 2 + m%3
			wide[m] = 1 << (5 + 3*m)
		}
		cases = append(cases,
			oc{"tiny", tiny, 3000},
			oc{"wide", wide, 5000})
	}
	cases = append(cases,
		oc{"size-1 modes", []int{1, 5, 1, 3}, 2000},
		oc{"all size-1", []int{1, 1, 1}, 500},
		oc{"128 bits exactly", []int{max32, max32, max32, max32}, 3000},
		oc{"128 bits, heavy dups", []int{max32, 2, 2, max32 / 2}, 3000},
		oc{"over 128 bits", []int{max32, max32, max32, max32, 3}, 3000},
		oc{"over 128 bits, heavy dups", []int{3, 2, max32, max32, max32, max32}, 3000},
		oc{"single entry", []int{10, 10}, 1})
	for ci, c := range cases {
		order := len(c.bounds)
		in := oracleCase(uint64(ci+1), c.nnz, c.bounds)
		// Make the first entries a duplicate run that cancels exactly.
		if len(in) >= 3 {
			in[1].Idx, in[2].Idx = in[0].Idx, in[0].Idx
			in[0].Val, in[1].Val, in[2].Val = 0.25, 0.5, -0.75
		}

		got, want := append([]Entry(nil), in...), append([]Entry(nil), in...)
		sortEntries(got, order)
		refSort(want, order)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s order %d: Sort differs from sort.Slice at %d", c.name, order, i)
		}

		got, want = append([]Entry(nil), in...), append([]Entry(nil), in...)
		x := &COO{Dims: make([]int, order), Entries: got}
		x.DedupSum()
		want = refDedupSum(want, order)
		if i := firstDiff(x.Entries, want); i >= 0 {
			t.Fatalf("%s order %d: DedupSum differs from the reference at %d of %d/%d",
				c.name, order, i, len(x.Entries), len(want))
		}
		if len(x.Entries) > 0 && &x.Entries[0] != &got[0] {
			t.Fatalf("%s order %d: DedupSum reallocated the entries", c.name, order)
		}
	}
}

func TestKeyLayout(t *testing.T) {
	at := func(idx ...uint32) []Entry {
		var e Entry
		copy(e.Idx[:], idx)
		return []Entry{e}
	}
	if _, ok := layoutFor(4, at(1<<32-1, 1<<32-1, 1<<32-1, 1<<32-1)); !ok {
		t.Fatal("four 32-bit fields fit 128 bits")
	}
	if _, ok := layoutFor(5, at(1<<32-1, 1<<32-1, 1<<32-1, 1<<32-1, 1)); ok {
		t.Fatal("129 bits do not fit")
	}
	// Widths follow the indices present, not Dims: an all-zero mode takes
	// no bits.
	l, ok := layoutFor(8, at(0, 1<<16-1, 0, 1<<16-1, 1<<16-1, 1<<16-1, 1<<16-1, 1<<16-1))
	if !ok || l.mask[0] != 0 || l.mask[2] != 0 || l.shift[1] != 80 {
		t.Fatalf("layout %+v ok=%v", l, ok)
	}
	src := rng.New(1)
	es := oracleCase(2, 200, []int{1 << 32, 7, 1 << 20, 1 << 31})
	l, _ = layoutFor(4, es)
	for i := range es {
		e := es[i]
		if got := l.unpack(l.pack(&e)); got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
		f := es[src.Intn(len(es))]
		if c := cmpKeyed(l.pack(&e), l.pack(&f)); (c < 0) != Less(4, &e, &f) || (c == 0) != (e.Idx == f.Idx) {
			t.Fatalf("key order disagrees with Less on %v, %v", e.Idx, f.Idx)
		}
	}
}
