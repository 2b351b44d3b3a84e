// Package tensor implements N-order sparse tensors in the coordinate (COO)
// storage format — the representation CSTF computes on directly — together
// with FROSTT .tns I/O, mode-n matricization (needed only by the
// BIGtensor/GigaTensor baseline), and deterministic synthetic generators.
package tensor

import (
	"fmt"
	"math"
	"sync"
)

// MaxOrder bounds the tensor order an Entry can carry. The paper evaluates
// orders 3 and 4 and argues the algorithms extend to order 5; 8 gives
// headroom without making every record heap-allocated.
const MaxOrder = 8

// Entry is one nonzero of a sparse tensor in COO form: the indices along
// each mode (only the first Order are meaningful) and the value. It is a
// plain value type so RDD partitions hold entries contiguously.
type Entry struct {
	Idx [MaxOrder]uint32
	Val float64
}

// COO is an N-order sparse tensor stored as a list of nonzero entries.
type COO struct {
	Dims    []int // size of each mode; len(Dims) is the order
	Entries []Entry

	mu      sync.Mutex   // guards modeIdx; indexes are built outside it
	modeIdx []*ModeIndex // lazily built per-mode sort/segment indexes
}

// New returns an empty tensor with the given mode sizes.
func New(dims ...int) *COO {
	if len(dims) < 1 || len(dims) > MaxOrder {
		panic(fmt.Sprintf("tensor: order %d out of range [1,%d]", len(dims), MaxOrder))
	}
	for _, d := range dims {
		if d <= 0 {
			panic("tensor: non-positive mode size")
		}
	}
	return &COO{Dims: append([]int(nil), dims...)}
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored nonzeros.
func (t *COO) NNZ() int { return len(t.Entries) }

// Density returns nnz / prod(dims) computed in floating point (real FROSTT
// densities underflow int64 products).
func (t *COO) Density() float64 {
	vol := 1.0
	for _, d := range t.Dims {
		vol *= float64(d)
	}
	return float64(t.NNZ()) / vol
}

// Append adds a nonzero. Indices are 0-based and bounds-checked.
func (t *COO) Append(val float64, idx ...int) {
	if len(idx) != t.Order() {
		panic(fmt.Sprintf("tensor: entry order %d != tensor order %d", len(idx), t.Order()))
	}
	var e Entry
	for m, i := range idx {
		if i < 0 || i >= t.Dims[m] {
			panic(fmt.Sprintf("tensor: index %d out of range for mode %d (size %d)", i, m, t.Dims[m]))
		}
		e.Idx[m] = uint32(i)
	}
	e.Val = val
	t.Entries = append(t.Entries, e)
	t.InvalidateIndex()
}

// Norm returns the Frobenius norm of the tensor.
func (t *COO) Norm() float64 {
	var s float64
	for i := range t.Entries {
		v := t.Entries[i].Val
		s += v * v
	}
	return math.Sqrt(s)
}

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	c := New(t.Dims...)
	c.Entries = append([]Entry(nil), t.Entries...)
	return c
}

// Less orders entries lexicographically over the first `order` indices.
func Less(order int, a, b *Entry) bool {
	for m := 0; m < order; m++ {
		if a.Idx[m] != b.Idx[m] {
			return a.Idx[m] < b.Idx[m]
		}
	}
	return false
}

// Sort orders the entries lexicographically by index (see sort.go).
func (t *COO) Sort() {
	sortEntries(t.Entries, t.Order())
	t.InvalidateIndex()
}

// DedupSum sorts the tensor and merges duplicate coordinates by summing
// their values, dropping entries that cancel to exactly zero.
func (t *COO) DedupSum() {
	if len(t.Entries) == 0 {
		return
	}
	t.Sort()
	out := t.Entries[:0]
	ord := t.Order()
	cur := t.Entries[0]
	for _, e := range t.Entries[1:] {
		if !Less(ord, &cur, &e) && !Less(ord, &e, &cur) {
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
	t.Entries = out
	t.InvalidateIndex()
}

// MaxModeSize returns the largest mode size (the "Max mode size" column of
// Table 5 in the paper).
func (t *COO) MaxModeSize() int {
	m := 0
	for _, d := range t.Dims {
		if d > m {
			m = d
		}
	}
	return m
}

// At returns the value at the given coordinate via linear scan. O(nnz) —
// for tests and tiny tensors only.
func (t *COO) At(idx ...int) float64 {
	if len(idx) != t.Order() {
		panic("tensor: At order mismatch")
	}
	var s float64
	for i := range t.Entries {
		e := &t.Entries[i]
		match := true
		for m, want := range idx {
			if e.Idx[m] != uint32(want) {
				match = false
				break
			}
		}
		if match {
			s += e.Val
		}
	}
	return s
}

// EntryBytes returns the wire size in bytes this repository charges for one
// COO entry of the given order: one 64-bit word per index plus one for the
// value, matching the paper's double-precision, word-per-coordinate
// accounting.
func EntryBytes(order int) int { return 8 * (order + 1) }
