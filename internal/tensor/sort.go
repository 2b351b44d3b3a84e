package tensor

import (
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// Sort (and through it DedupSum) orders entries by a packed key instead of
// comparing [MaxOrder]uint32 arrays. Each mode's index is a bit field of
// the key, mode 0 most significant, as wide as the largest index present in
// that mode (a mode whose indices are all 0 takes no bits). Comparing two
// keys as integers is then exactly Less on their coordinates, and
// slices.SortFunc runs the same pdqsort as sort.Slice, so with the same
// comparison outcomes the permutation — and the order DedupSum sums
// duplicates in — is the one the entry sort produced, bit for bit.
//
// The keyed records are written over the entries' own buffer: a record is
// 24 bytes and an entry 40, so record i never reaches past entry i when
// packing front to back, nor entry i past record i when unpacking back to
// front. Entry holds no pointers, so the garbage collector does not care
// what the bytes mean in between. Coordinates wider than 128 bits fall back
// to sorting the entries themselves.

// keyed is one entry in packed form: its coordinate as a 128-bit key and
// its value.
type keyed struct {
	hi, lo uint64
	val    float64
}

func cmpKeyed(a, b keyed) int {
	switch {
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// keyLayout is where each mode's field sits in the key: the bits from
// shift[m] up, counting from the least significant, under mask[m].
type keyLayout struct {
	order int
	shift [MaxOrder]uint
	mask  [MaxOrder]uint64
}

// layoutFor sizes the key fields from the indices present in es; ok is
// false when they need more than 128 bits.
func layoutFor(order int, es []Entry) (l keyLayout, ok bool) {
	var seen [MaxOrder]uint32 // OR of every index: same bit length as the max
	for i := range es {
		for m := 0; m < order; m++ {
			seen[m] |= es[i].Idx[m]
		}
	}
	l.order = order
	total := uint(0)
	for m := order - 1; m >= 0; m-- {
		w := uint(bits.Len32(seen[m]))
		l.shift[m], l.mask[m] = total, 1<<w-1
		total += w
	}
	return l, total <= 128
}

func (l *keyLayout) pack(e *Entry) keyed {
	k := keyed{val: e.Val}
	for m := 0; m < l.order; m++ {
		x, s := uint64(e.Idx[m]), l.shift[m]
		k.lo |= x << s // zero once s >= 64
		if s >= 64 {
			k.hi |= x << (s - 64)
		} else {
			k.hi |= x >> (64 - s) // zero at s == 0
		}
	}
	return k
}

func (l *keyLayout) unpack(k keyed) Entry {
	e := Entry{Val: k.val}
	for m := 0; m < l.order; m++ {
		s := l.shift[m]
		var x uint64
		if s >= 64 {
			x = k.hi >> (s - 64)
		} else {
			x = k.lo>>s | k.hi<<(64-s)
		}
		e.Idx[m] = uint32(x & l.mask[m])
	}
	return e
}

// sortEntries sorts es in place by coordinate, in the order sort.Slice with
// Less would leave them.
func sortEntries(es []Entry, order int) {
	l, ok := layoutFor(order, es)
	if !ok {
		sort.Slice(es, func(i, j int) bool { return Less(order, &es[i], &es[j]) })
		return
	}
	recs := unsafe.Slice((*keyed)(unsafe.Pointer(unsafe.SliceData(es))), len(es))
	for i := range es {
		e := es[i] // read entry i before record i covers part of it
		recs[i] = l.pack(&e)
	}
	slices.SortFunc(recs, cmpKeyed)
	for i := len(es) - 1; i >= 0; i-- {
		es[i] = l.unpack(recs[i])
	}
}
