package tensor

import (
	"runtime"
	"slices"
	"testing"

	"cstf/internal/rng"
)

// Sort is stable for any worker count: it leaves the entries in the order
// slices.SortStableFunc does, so each run of equal coordinates keeps its
// input order, and DedupSum sums it in that order. Every entry carries a
// value of its own, so a run put in another order shows. The radix cases
// span several scan chunks; between them they end in either radix buffer.
func TestSortIsStableAtAnyWorkerCount(t *testing.T) {
	const max32 = 1 << 32
	single := make([]Entry, 70_000)
	for i := range single {
		single[i].Idx = [MaxOrder]uint32{7, 3, 5}
	}
	cases := []struct {
		name  string
		order int
		es    []Entry
	}{
		{"zipf3, 46-bit keys", 3, zipfEntries(1, 140_000, 0.7, zipf3Dims)},
		{"als4-tall shape, 66-bit keys", 4, uniformEntries(2, 100_000, als4TallDims)},
		{"80-bit keys", 5, oracleCase(3, 100_000, []int{1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 16})},
		{"over 128 bits", 5, oracleCase(4, 20_000, []int{max32, max32, max32, max32, 3})},
		{"64 bits below an all-zero mode", 3, oracleCase(8, 70_000, []int{1, max32, max32})},
		{"128 bits below an all-zero mode", 5, oracleCase(9, 70_000, []int{1, max32, max32, max32, max32})},
		{"runs of three and more", 3, oracleCase(5, 140_000, []int{23, 17, 11})},
		{"8-bit keys, one pass", 1, oracleCase(6, 70_000, []int{256})},
		{"empty", 3, nil},
		{"one entry", 3, oracleCase(7, 1, []int{10, 10, 10})},
		{"one key", 3, single},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		for i := range c.es {
			c.es[i].Val = float64(i + 1)
		}
		want := slices.Clone(c.es)
		slices.SortStableFunc(want, func(a, b Entry) int {
			switch {
			case Less(c.order, &a, &b):
				return -1
			case Less(c.order, &b, &a):
				return 1
			}
			return 0
		})
		wantSum := refMerge(slices.Clone(want), c.order)
		for _, workers := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(workers)
			x := &COO{Dims: make([]int, c.order), Entries: slices.Clone(c.es)}
			x.Sort()
			if i := firstDiff(x.Entries, want); i >= 0 {
				t.Fatalf("%s, %d workers: entry %d differs from slices.SortStableFunc", c.name, workers, i)
			}
			x.Entries = slices.Clone(c.es)
			x.DedupSum()
			if i := firstDiff(x.Entries, wantSum); i >= 0 {
				t.Fatalf("%s, %d workers: DedupSum differs from the reference at %d", c.name, workers, i)
			}
		}
	}
}

// A mode whose indices are all 0 takes no key bits, even when it is the
// most significant field and the others fill a 64-bit key exactly.
func TestAllZeroModeAboveAFullKey(t *testing.T) {
	x := New(1, 1<<32, 1<<32)
	x.Append(1, 0, 4e9, 4e9)
	x.Append(2, 0, 3e9, 3e9)
	x.Append(3, 0, 4e9, 4e9)
	if c := NewCSF(x, []int{0, 2, 1}); !slices.Equal(c.Vals, []float64{2, 4}) {
		t.Fatalf("CSF leaves %v, want [2 4]", c.Vals)
	}
	x.DedupSum()
	want := []Entry{{Idx: [MaxOrder]uint32{0, 3e9, 3e9}, Val: 2}, {Idx: [MaxOrder]uint32{0, 4e9, 4e9}, Val: 4}}
	if !slices.Equal(x.Entries, want) {
		t.Fatalf("DedupSum left %v, want %v", x.Entries, want)
	}
}

// DedupSum on a key of at most 64 bits sorts inside the entries' own
// buffer: both radix buffers are part of it, so all it may allocate is a
// histogram and an index scan per chunk, and a little for the pool.
func TestDedupSumSortsInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	x := New(zipf3Dims...)
	x.Entries = zipfEntries(1, 200_000, 0.7, zipf3Dims)
	n := len(x.Entries)
	chunks := uint64((n + scanChunk - 1) / scanChunk)
	hist := chunks * (256*8 + MaxOrder*4)
	const slack = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x.DedupSum()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > hist+slack {
		t.Errorf("DedupSum of %d entries allocated %d bytes, want at most %d (histograms %d + slack %d)",
			n, got, hist+slack, hist, slack)
	} else {
		t.Logf("DedupSum allocated %d bytes of a %d bound", got, hist+slack)
	}
}

// sortCase builds n order-3 entries whose coordinates order as key(i) does.
func sortCase(n int, key func(i int) uint32) []Entry {
	es := make([]Entry, n)
	for i := range es {
		k := key(i)
		es[i].Idx = [MaxOrder]uint32{k >> 10, k & 1023, 0}
	}
	return es
}

// The radix passes hand their chunks to other goroutines but must not
// change the permutation: on key patterns a comparison sort finds hard,
// every worker count leaves the entries in slices.SortStableFunc's order.
// Every input spans more than four scan chunks.
func TestSortKeyedForkKeepsPermutation(t *testing.T) {
	n := 4*scanChunk + 1001
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		// A value of its own per entry: two orders of equal keys then
		// differ in the values.
		for i := range c.es {
			c.es[i].Val = float64(i)
		}
		want := slices.Clone(c.es)
		refSort(want, 3)
		for _, workers := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(workers)
			x := &COO{Dims: make([]int, 3), Entries: slices.Clone(c.es)}
			x.Sort()
			if i := firstDiff(x.Entries, want); i >= 0 {
				t.Fatalf("%s, %d workers: entry %d differs from the stable sort", c.name, workers, i)
			}
		}
	}
}

// DedupSum sums duplicate runs in input order; on a tie-heavy draw over
// several radix chunks the sums must be the reference's bit for bit at
// every worker count.
func TestDedupSumForkedMatchesReference(t *testing.T) {
	in := oracleCase(11, 4*scanChunk+77, []int{23, 17, 11})
	want := refDedupSum(slices.Clone(in), 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(workers)
		x := &COO{Dims: []int{23, 17, 11}, Entries: slices.Clone(in)}
		x.DedupSum()
		if i := firstDiff(x.Entries, want); i >= 0 {
			t.Fatalf("%d workers: DedupSum differs from the reference at %d of %d/%d",
				workers, i, len(x.Entries), len(want))
		}
	}
}
