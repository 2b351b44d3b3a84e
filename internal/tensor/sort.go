package tensor

import (
	"math/bits"
	"slices"
	"unsafe"

	"cstf/internal/par"
)

// Sort (and through it DedupSum), and NewCSF in its own mode order, order
// entries by a packed key instead of comparing [MaxOrder]uint32 arrays.
// Each mode's index is a bit field of the key, the first field most
// significant, as wide as the largest index present in that mode (a mode
// whose indices are all 0 takes no bits). Comparing two keys as integers is
// then exactly comparing their coordinates field by field. The sort is a
// stable LSD radix sort: entries with equal coordinates keep their input
// order, which is the order DedupSum and NewCSF sum them in.
//
// The records are written over the entries' own buffer, which holds no
// pointers, so the garbage collector does not care what the bytes mean in
// between. A record of a key of at most 64 bits is 16 bytes and an entry
// 40, so both radix buffers fit: one at the bottom and one in the top 16
// bytes per entry. A 128-bit record is 24 bytes, and its second buffer is
// an array of its own. Coordinates wider than 128 bits fall back to a
// stable comparison sort of the entries themselves.

// keyWords is a packed key, least significant word first.
type keyWords interface{ [1]uint64 | [2]uint64 }

// record is one entry in packed form: its coordinate's key and its value.
type record[K keyWords] struct {
	key K
	val float64
}

// keyLayout is where each mode's field sits in the key: the bits from
// shift[m] up, counting from the least significant, under mask[m].
type keyLayout struct {
	order int
	shift [MaxOrder]uint
	mask  [MaxOrder]uint64
}

// scanChunk is how many entries one task of layoutFor's scan, or of a
// radix pass, reads.
const scanChunk = 1 << 16

// layoutFor sizes the key fields, fields[0] most significant, from the
// indices present in es and returns the key's width in bits.
func layoutFor(fields []int, es []Entry) (l keyLayout, keyBits uint) {
	// OR of every index, which has the max's bit length; each chunk ORs its
	// own, and OR does not care in what order they are merged.
	chunks := make([][MaxOrder]uint32, (len(es)+scanChunk-1)/scanChunk)
	par.Run(0, len(chunks), func(c int) {
		seen := &chunks[c]
		for i := c * scanChunk; i < min((c+1)*scanChunk, len(es)); i++ {
			for _, m := range fields {
				seen[m] |= es[i].Idx[m]
			}
		}
	})
	var seen [MaxOrder]uint32
	for c := range chunks {
		for _, m := range fields {
			seen[m] |= chunks[c][m]
		}
	}
	l.order = len(fields)
	for i := len(fields) - 1; i >= 0; i-- {
		m := fields[i]
		w := uint(bits.Len32(seen[m]))
		if w == 0 {
			// An empty field sits at bit 0: its shift must name a word of
			// the key even when the fields below it fill every word.
			continue
		}
		l.shift[m], l.mask[m] = keyBits, 1<<w-1
		keyBits += w
	}
	return l, keyBits
}

func pack[K keyWords](l *keyLayout, e *Entry) record[K] {
	r := record[K]{val: e.Val}
	for m := 0; m < l.order; m++ {
		x, w, s := uint64(e.Idx[m]), l.shift[m]/64, l.shift[m]%64
		r.key[w] |= x << s
		if w+1 < uint(len(r.key)) {
			r.key[w+1] |= x >> (64 - s) // zero at s == 0
		}
	}
	return r
}

func unpack[K keyWords](l *keyLayout, r *record[K]) Entry {
	e := Entry{Val: r.val}
	for m := 0; m < l.order; m++ {
		w, s := l.shift[m]/64, l.shift[m]%64
		x := r.key[w] >> s
		if w+1 < uint(len(r.key)) {
			x |= r.key[w+1] << (64 - s) // zero at s == 0
		}
		e.Idx[m] = uint32(x & l.mask[m])
	}
	return e
}

// sortEntries sorts es in place by coordinate, fields[0] most significant,
// stably.
func sortEntries(es []Entry, fields []int) {
	n := len(es)
	if n < 2 {
		return
	}
	l, keyBits := layoutFor(fields, es)
	switch {
	case keyBits > 128:
		slices.SortStableFunc(es, func(a, b Entry) int {
			for _, m := range fields {
				if a.Idx[m] != b.Idx[m] {
					if a.Idx[m] < b.Idx[m] {
						return -1
					}
					return 1
				}
			}
			return 0
		})
	case keyBits > 64:
		sortPacked(es, &l, keyBits, make([]record[[2]uint64], n))
	default:
		top := unsafe.Add(unsafe.Pointer(unsafe.SliceData(es)), 24*n)
		sortPacked(es, &l, keyBits, unsafe.Slice((*record[[1]uint64])(top), n))
	}
}

// sortPacked packs es into records over its own first bytes, radix sorts
// them with b as the other buffer, and unpacks them back into es.
func sortPacked[K keyWords](es []Entry, l *keyLayout, keyBits uint, b []record[K]) {
	a := unsafe.Slice((*record[K])(unsafe.Pointer(unsafe.SliceData(es))), len(es))
	for i := range es {
		e := es[i] // read entry i before record i covers part of it
		a[i] = pack[K](l, &e)
	}
	out := radixSort(a, b, keyBits)
	// Entry i is written over bytes whose records have all been read: going
	// back to front when they are in a, front to back when they are in b
	// (entry i ends at byte 40i+40, where b's record i+1 starts if b is the
	// top of es, and b may be an array of its own).
	back := &out[0] == &a[0]
	for k := range es {
		i := k
		if back {
			i = len(es) - 1 - k
		}
		es[i] = unpack(l, &out[i])
	}
}

// radixSort sorts the records of a by the low keyBits bits of their key,
// stably, eight bits a pass, with b (as long as a) as the other buffer, and
// returns whichever of the two holds the result. Each pass counts digits
// per chunk on the pool, then places chunk c's records of digit d after
// those of every smaller digit and of the same digit in chunks before c:
// the stable order, whichever worker ran which chunk. A pass whose digit is
// the same for every record is skipped.
func radixSort[K keyWords](a, b []record[K], keyBits uint) []record[K] {
	n := len(a)
	hist := make([][256]int, (n+scanChunk-1)/scanChunk)
	for shift := uint(0); shift < keyBits; shift += 8 {
		w, s := shift/64, shift%64
		src, dst := a, b
		par.Run(0, len(hist), func(c int) {
			h := &hist[c]
			*h = [256]int{}
			for i := c * scanChunk; i < min((c+1)*scanChunk, n); i++ {
				h[uint8(src[i].key[w]>>s)]++
			}
		})
		pos, skip := 0, false
		for d := range 256 {
			first := pos
			for c := range hist {
				hist[c][d], pos = pos, pos+hist[c][d]
			}
			skip = skip || pos-first == n
		}
		if skip {
			continue
		}
		par.Run(0, len(hist), func(c int) {
			h := &hist[c]
			for i := c * scanChunk; i < min((c+1)*scanChunk, n); i++ {
				d := uint8(src[i].key[w] >> s)
				dst[h[d]] = src[i]
				h[d]++
			}
		})
		a, b = b, a
	}
	return a
}
