package tensor

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"cstf/internal/rng"
)

// sortCase builds n order-3 entries whose coordinates order as key(i) does.
func sortCase(n int, key func(i int) uint32) []Entry {
	es := make([]Entry, n)
	for i := range es {
		k := key(i)
		es[i].Idx = [MaxOrder]uint32{k >> 10, k & 1023, 0}
	}
	return es
}

func packAll(es []Entry, order int) (keyLayout, []keyed) {
	l, ok := layoutFor(order, es)
	if !ok {
		panic("sortCase keys fit 128 bits")
	}
	recs := make([]keyed, len(es))
	for i := range es {
		recs[i] = l.pack(&es[i])
	}
	return l, recs
}

func sameRecords(got, want []keyed) int {
	for i := range got {
		if got[i].hi != want[i].hi || got[i].lo != want[i].lo ||
			math.Float64bits(got[i].val) != math.Float64bits(want[i].val) {
			return i
		}
	}
	return -1
}

// The fork runs ranges on other goroutines but must not change a step:
// at every worker count the records end in the order slices.SortFunc with
// the old comparison leaves them, and unpacked, in sort.Slice's order of
// the entries. Every input is at least four times forkMin, so the ranges
// the fork hands out are themselves cut again.
func TestSortKeyedForkKeepsPermutation(t *testing.T) {
	n := 4*forkMin + 1001
	src := rng.New(9)
	cases := []struct {
		name string
		es   []Entry
	}{
		{"16 keys", sortCase(n, func(int) uint32 { return uint32(src.Intn(16)) })},
		{"ascending with repeats", sortCase(n, func(i int) uint32 { return uint32(i / 3) })},
		{"descending", sortCase(n, func(i int) uint32 { return uint32(n - i) })},
		{"organ pipe", sortCase(n, func(i int) uint32 { return uint32(min(i, n-1-i)) })},
		{"saw tooth", sortCase(n, func(i int) uint32 { return uint32(i % 5003) })},
		{"zipf3", zipfEntries(1, n, 0.7, zipf3Dims)},
	}
	for _, c := range cases {
		// A value of its own per entry: two permutations of equal keys
		// then differ in the values.
		for i := range c.es {
			c.es[i].Val = float64(i)
		}
		l, in := packAll(c.es, 3)
		want := slices.Clone(in)
		slices.SortFunc(want, cmpKeyed)
		ref := slices.Clone(c.es)
		refSort(ref, 3)
		for _, workers := range []int{1, 2, 3, 8} {
			got := slices.Clone(in)
			sortKeyed(got, workers)
			if i := sameRecords(got, want); i >= 0 {
				t.Fatalf("%s, %d workers: record %d differs from slices.SortFunc", c.name, workers, i)
			}
			es := make([]Entry, len(got))
			for i := range got {
				es[i] = l.unpack(got[i])
			}
			if i := firstDiff(es, ref); i >= 0 {
				t.Fatalf("%s, %d workers: entry %d differs from sort.Slice", c.name, workers, i)
			}
		}
	}
}

// No input above reaches the heap sort fall-back, which pdqsort takes once
// limit bad pivots have been chosen; at limit 0 it is the first step. With
// distinct keys there is one sorted order to check it against.
func TestSortKeyedHeapSortFallBack(t *testing.T) {
	src := rng.New(3)
	_, recs := packAll(sortCase(5000, func(int) uint32 { return uint32(src.Uint64()) }), 3)
	want := slices.Clone(recs)
	slices.SortFunc(want, cmpKeyed)
	s := &keyedSort{data: recs}
	s.pdqsort(0, len(recs), 0)
	if i := sameRecords(recs, want); i >= 0 {
		t.Fatalf("record %d out of order", i)
	}
}

// DedupSum sums duplicate runs in sort order; on a tie-heavy draw past the
// fork cut-off the sums must still be the reference's bit for bit.
func TestDedupSumForkedMatchesReference(t *testing.T) {
	in := oracleCase(11, 4*forkMin+77, []int{23, 17, 11})
	x := &COO{Dims: []int{23, 17, 11}, Entries: slices.Clone(in)}
	x.DedupSum()
	want := refDedupSum(slices.Clone(in), 3)
	if i := firstDiff(x.Entries, want); i >= 0 {
		t.Fatalf("DedupSum differs from the reference at %d of %d/%d", i, len(x.Entries), len(want))
	}
}

// A panic on a forked range's goroutine must not take the process down:
// wait re-raises it on the caller, once the range has finished.
func TestSortKeyedPanicSurfacesOnCaller(t *testing.T) {
	recs := make([]keyed, 2*forkMin)
	s := &keyedSort{data: recs, spare: make(chan struct{}, 1)}
	forked := false
	defer func() {
		v := recover()
		if _, ok := v.(runtime.Error); !ok || !forked {
			t.Fatalf("recovered %v after fork returned: %v; want the forked range's index error", v, forked)
		}
	}()
	s.fork(0, len(recs)+1, 8) // one past the end: the range panics on its goroutine
	forked = true
	s.wait()
}
