package tensor

import (
	"slices"
	"testing"
)

func partitionTestTensor() *COO {
	// Skewed occupancy so the balancer has real work: row 0 of mode 0
	// holds half the nonzeros.
	t := New(8, 5, 6)
	k := 0
	for i := 0; i < 40; i++ {
		r := 0
		if i%2 == 1 {
			r = 1 + (i/2)%7
		}
		t.Append(float64(i+1), r, i%5, (i*3)%6)
		k++
	}
	return t
}

func TestModeIndexSortedAndStable(t *testing.T) {
	x := partitionTestTensor()
	for mode := 0; mode < x.Order(); mode++ {
		mi := x.ModeIndex(mode)
		if len(mi.Perm) != x.NNZ() {
			t.Fatalf("mode %d: perm length %d != nnz %d", mode, len(mi.Perm), x.NNZ())
		}
		for p := 1; p < len(mi.Perm); p++ {
			a, b := &x.Entries[mi.Perm[p-1]], &x.Entries[mi.Perm[p]]
			if a.Idx[mode] > b.Idx[mode] {
				t.Fatalf("mode %d: perm not sorted at %d", mode, p)
			}
			if a.Idx[mode] == b.Idx[mode] && mi.Perm[p-1] >= mi.Perm[p] {
				t.Fatalf("mode %d: counting sort not stable at %d", mode, p)
			}
		}
		for r := 0; r < x.Dims[mode]; r++ {
			for p := mi.RowPtr[r]; p < mi.RowPtr[r+1]; p++ {
				if got := x.Entries[mi.Perm[p]].Idx[mode]; got != uint32(r) {
					t.Fatalf("mode %d row %d: segment holds entry of row %d", mode, r, got)
				}
			}
		}
	}
}

func TestModeIndexRanges(t *testing.T) {
	x := partitionTestTensor()
	for mode := 0; mode < x.Order(); mode++ {
		mi := x.ModeIndex(mode)
		for _, parts := range []int{1, 2, 3, 8, 100} {
			ranges := mi.Ranges(parts)
			if len(ranges) > parts {
				t.Fatalf("mode %d parts %d: got %d ranges", mode, parts, len(ranges))
			}
			covered := 0
			prevRow := 0
			for _, r := range ranges {
				if r.RowLo < prevRow || r.RowHi <= r.RowLo {
					t.Fatalf("mode %d parts %d: bad row range %+v", mode, parts, r)
				}
				if int(mi.RowPtr[r.RowLo]) != r.Lo || int(mi.RowPtr[r.RowHi]) != r.Hi {
					t.Fatalf("mode %d parts %d: range %+v not row-aligned", mode, parts, r)
				}
				covered += r.Hi - r.Lo
				prevRow = r.RowHi
			}
			if covered != x.NNZ() {
				t.Fatalf("mode %d parts %d: ranges cover %d of %d nonzeros", mode, parts, covered, x.NNZ())
			}
		}
	}
}

func TestModeIndexCacheInvalidation(t *testing.T) {
	x := New(4, 4)
	x.Append(1, 0, 0)
	mi := x.ModeIndex(0)
	if len(mi.Perm) != 1 {
		t.Fatalf("perm length %d", len(mi.Perm))
	}
	if x.ModeIndex(0) != mi {
		t.Fatal("second lookup should hit the cache")
	}
	x.Append(2, 3, 1)
	mi2 := x.ModeIndex(0)
	if mi2 == mi || len(mi2.Perm) != 2 {
		t.Fatal("Append must invalidate the cached index")
	}
	x.Sort()
	if x.ModeIndex(0) == mi2 {
		t.Fatal("Sort must invalidate the cached index")
	}
	x.DedupSum()
	mi3 := x.ModeIndex(0)
	if len(mi3.Perm) != 2 {
		t.Fatalf("post-dedup perm length %d", len(mi3.Perm))
	}
}

func TestModeIndexConcurrentBuild(t *testing.T) {
	x := partitionTestTensor()
	done := make(chan *ModeIndex, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- x.ModeIndex(1) }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent builds returned different indexes")
		}
	}
}

func TestModeIndexesConcurrentAndCached(t *testing.T) {
	x := GenZipf(3, 20_000, 0.8, 300, 200, 100, 50)
	all := make(chan []*ModeIndex, 4)
	for i := 0; i < 4; i++ {
		go func() { all <- x.ModeIndexes(4) }()
	}
	first := <-all
	for i := 1; i < 4; i++ {
		got := <-all
		for m := range got {
			if got[m] != first[m] {
				t.Fatalf("mode %d: concurrent ModeIndexes returned different indexes", m)
			}
		}
	}
	for m, mi := range first {
		want := buildModeIndex(x, m)
		if mi.Mode != m || !slices.Equal(mi.Perm, want.Perm) || !slices.Equal(mi.RowPtr, want.RowPtr) {
			t.Fatalf("mode %d: index differs from a serial build", m)
		}
		if x.ModeIndex(m) != mi {
			t.Fatalf("mode %d: ModeIndexes did not fill the cache", m)
		}
	}
}

func TestModeIndexesCached(t *testing.T) {
	x := partitionTestTensor()
	if x.ModeIndexesCached() {
		t.Fatal("a fresh tensor reports its mode indexes cached")
	}
	x.ModeIndex(0)
	if x.ModeIndexesCached() {
		t.Fatal("one mode's index reported as every mode's")
	}
	x.ModeIndexes(2)
	if !x.ModeIndexesCached() {
		t.Fatal("ModeIndexes left an index uncached")
	}
	x.Append(1, 0, 0, 0)
	if x.ModeIndexesCached() {
		t.Fatal("the indexes outlived a mutation")
	}
}

func TestModeIndexEmptyTensor(t *testing.T) {
	x := New(3, 3)
	mi := x.ModeIndex(0)
	if len(mi.Perm) != 0 {
		t.Fatal("empty tensor should have empty perm")
	}
	if got := mi.Ranges(4); len(got) != 0 {
		t.Fatalf("empty tensor produced ranges %v", got)
	}
}
