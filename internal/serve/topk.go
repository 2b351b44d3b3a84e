package serve

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"cstf/internal/la"
	"cstf/internal/par"
)

// Scored is one ranked result: a row index of the queried mode and its
// score (predicted interaction for TopK, cosine similarity for Similar).
type Scored struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

// topKHeap is a bounded min-heap of the best k candidates seen so far: the
// root is the WORST kept item, so a new candidate only enters if it beats
// the root. Ordering is (score, then larger-index-is-worse), which makes
// the kept set — and therefore the final ranking — deterministic under
// score ties regardless of scan or merge order.
type topKHeap []Scored

// worse reports whether a ranks strictly worse than b.
func worse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// pushK offers a candidate to a heap bounded at k items.
func (h *topKHeap) pushK(k int, it Scored) {
	s := *h
	if len(s) < k {
		s = append(s, it)
		// sift up
		i := len(s) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(s[i], s[p]) {
				break
			}
			s[i], s[p] = s[p], s[i]
			i = p
		}
		*h = s
		return
	}
	if k == 0 || !worse(s[0], it) {
		return
	}
	s[0] = it
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && worse(s[l], s[min]) {
			min = l
		}
		if r < len(s) && worse(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// sorted returns the heap's items best-first (descending score, ascending
// index on ties), consuming nothing — the heap slice is sorted in place and
// returned (nil when empty).
func (h topKHeap) sorted() []Scored {
	if len(h) == 0 {
		return nil
	}
	out := []Scored(h)
	slices.SortFunc(out, func(a, b Scored) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Index, b.Index))
	})
	return out
}

// scanQuery is one query of a scan. Rows self (Similar's own, -1 for none)
// and those in the normalized exclude set ex are dropped; divisors, when
// non-nil, divides each row's score (zero for a zero divisor).
type scanQuery struct {
	q, divisors []float64
	k, self     int
	ex          []int
}

// scanRows offers candidate rows [lo, hi) of f, scored against sq, to h.
// It is the one scan kernel of every exact ranked query. Rows are scored
// four per pass, so the four sums form independent dependency chains;
// each sum still adds its row's products in index order from zero
// (s += a*b), exactly as la.VecDot does, so every score is bitwise the
// one a row-at-a-time scan computes (the last rows of a range, fewer than
// four, go through la.VecDot itself). A row reaches the heap only if it
// beats the root.
func scanRows(h *topKHeap, sq scanQuery, f *la.Dense, lo, hi int) {
	q, k, ex, c := sq.q, sq.k, sq.ex, len(sq.q)
	e := sort.SearchInts(ex, lo) // ex[e] is the next excluded row >= the row offered
	var sums [4]float64
	for i := lo; i < hi; i += 4 {
		n := min(4, hi-i)
		if n == 4 {
			rows := f.Data[i*c : (i+4)*c]
			r0, r1, r2, r3 := rows[:c], rows[c:][:c], rows[2*c:][:c], rows[3*c:][:c]
			var s0, s1, s2, s3 float64
			for j, qj := range q {
				s0 += r0[j] * qj
				s1 += r1[j] * qj
				s2 += r2[j] * qj
				s3 += r3[j] * qj
			}
			sums = [4]float64{s0, s1, s2, s3}
		} else {
			for d := range sums[:n] {
				sums[d] = la.VecDot(f.Data[(i+d)*c:][:c], q)
			}
		}
		for d, s := range sums[:n] {
			row := i + d
			for e < len(ex) && ex[e] < row {
				e++
			}
			if row == sq.self || (e < len(ex) && ex[e] == row) {
				continue
			}
			if sq.divisors != nil {
				if dv := sq.divisors[row]; dv > 0 {
					s /= dv
				} else {
					s = 0
				}
			}
			if it := (Scored{Index: row, Score: s}); len(*h) < k || worse((*h)[0], it) {
				h.pushK(k, it)
			}
		}
	}
}

// batchScan scans rows [lo, hi) of f for a batch of queries, one
// par.BlockSize block at a time: every query scores a block while it is
// in cache, into its own partial heap, and partials merge in block order,
// so results are the same for every worker count.
type batchScan struct {
	f      *la.Dense
	lo, hi int
	qs     []scanQuery
	heaps  []topKHeap // per (block, query), block-major; reused
}

func (b *batchScan) reset(f *la.Dense, lo, hi int, qs []scanQuery) {
	b.f, b.lo, b.hi, b.qs = f, lo, hi, qs
	b.heaps = slices.Grow(b.heaps[:0], b.blocks()*len(qs))[:b.blocks()*len(qs)]
	for i := range b.heaps {
		b.heaps[i] = b.heaps[i][:0]
	}
}

func (b *batchScan) blocks() int { return par.NumBlocks(b.hi - b.lo) }

// block scans block bi for every query.
func (b *batchScan) block(bi int) {
	lo, hi := par.Block(bi, b.hi-b.lo)
	for qi, sq := range b.qs {
		scanRows(&b.heaps[bi*len(b.qs)+qi], sq, b.f, b.lo+lo, b.lo+hi)
	}
}

// result merges query qi's partials in block order into a new slice.
func (b *batchScan) result(qi int) []Scored {
	k := b.qs[qi].k
	h := make(topKHeap, 0, min(k, b.hi-b.lo)) // the answer's one allocation
	for bi := 0; bi < b.blocks(); bi++ {
		for _, it := range b.heaps[bi*len(b.qs)+qi] {
			h.pushK(k, it)
		}
	}
	return h.sorted()
}

// MergeTopK merges partial rankings — each sorted or unsorted, typically
// one per row-range shard — into the best k overall, under the same total
// order every scan uses (descending score, ascending index on ties). A
// fleet router that splits a mode into disjoint row ranges, asks one
// replica per range for its partial top k, and merges here gets a result
// bitwise-identical to a single-node full scan.
func MergeTopK(k int, partials ...[]Scored) []Scored {
	var h topKHeap
	for _, p := range partials {
		for _, it := range p {
			h.pushK(k, it)
		}
	}
	return h.sorted()
}
