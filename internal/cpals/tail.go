package cpals

import (
	"math"
	"slices"
	"sort"

	"cstf/internal/la"
	"cstf/internal/par"
)

// tail is what follows the MTTKRP in a mode update — the row solve, the
// column normalize, the gram refresh and the zero-row marks — as two passes
// over the factor's par.Block row blocks, solve and refresh (DESIGN §9).
// The blocks, the per-entry order and the elementwise operations are those
// of la.ScaleColumnsParallel, NormalizeColumnsParallel and GramParallel run
// one after the other, so every output bit is theirs. Its buffers live for
// the solve.
type tail struct {
	w     int
	norms []float64  // per block, the column-norm partial
	grams []float64  // per block, the upper triangle of the gram partial
	tops  []uint64   // per block, the bits of the largest magnitude
	zero  [][]uint64 // per mode, the zero-row marks of the current factor
}

// marks returns mode n's bitset of zero rows, sized for rows rows.
func (t *tail) marks(n, rows int) []uint64 {
	t.zero[n] = grow(t.zero[n], (rows+63)/64)
	return t.zero[n]
}

// solve is the first pass. Each row of u is multiplied by scale (nil: not)
// and solved by r against v if rows lists it (nil: every row); then, while
// it is in cache, it is added into its block's column-norm partial, or, if
// it came out all +0, set in zero. It returns lambda: the partials summed in
// block order, square-rooted, a zero norm reported as 1. A skipped row adds
// +0 to a partial that is +0 or more, so that is la.ColumnNormsParallel's.
func (t *tail) solve(u, m, v *la.Dense, rows []int, scale []float64, r Rule, zero []uint64) []float64 {
	c, nb := u.Cols, par.NumBlocks(u.Rows)
	t.norms = grow(t.norms, nb*c)
	pinv := r.pinv(v)
	par.Run(t.w, nb, func(b int) {
		lo, hi := par.Block(b, u.Rows)
		p := t.norms[b*c : (b+1)*c]
		clear(p)
		// par.BlockSize is a multiple of 64, so the blocks write disjoint words.
		clear(zero[lo/64 : (hi+63)/64])
		sat, k := make([]byte, c), sort.SearchInts(rows, lo) // k: the next listed row
		for i := lo; i < hi; i++ {
			row := u.Row(i)
			if scale != nil {
				la.VecMulInto(row, scale)
			}
			if rows == nil || k < len(rows) && rows[k] == i {
				r.solveRow(row, m.Row(i), v, pinv, sat)
				k++
			}
			var or uint64
			for _, x := range row {
				or |= math.Float64bits(x)
			}
			if or == 0 {
				zero[i/64] |= 1 << (i % 64)
			} else {
				la.AddSquares(p, row)
			}
		}
	})
	norms := make([]float64, c)
	for b := range nb {
		la.VecAdd(norms, t.norms[b*c:(b+1)*c])
	}
	for j, s := range norms {
		if norms[j] = math.Sqrt(s); norms[j] == 0 {
			norms[j] = 1
		}
	}
	return norms
}

// refresh is the second pass. It stores u divided by norms in f with the
// FlushBelow rule (without norms f is u, left as it is), sets in zero the
// rows of f whose largest magnitude is 0 and adds each row into its block's
// gram partial; the gram is the partials summed in block order, mirrored.
// zero holds the rows solve set, which are all +0 in u and f and are passed
// over unless a norm is NaN (0/NaN is NaN), or, without norms, nothing. It
// returns the gram and zero, or nil marks where f holds an entry above 1 in
// magnitude or not finite: after a NaN norm, always.
func (t *tail) refresh(f, u *la.Dense, norms []float64, zero []uint64) (*la.Dense, []uint64) {
	c, nb := f.Cols, par.NumBlocks(f.Rows)
	skip := norms != nil && !slices.ContainsFunc(norms, math.IsNaN)
	t.grams, t.tops = grow(t.grams, nb*c*c), grow(t.tops, nb)
	par.Run(t.w, nb, func(b int) {
		lo, hi := par.Block(b, f.Rows)
		g := t.grams[b*c*c : (b+1)*c*c]
		clear(g)
		var top uint64
		for i := lo; i < hi; i++ {
			word, bit := &zero[i/64], uint64(1)<<(i%64)
			if skip && *word&bit != 0 {
				continue
			}
			row := f.Row(i)
			if norms != nil {
				la.ScaleRow(row, u.Row(i), norms)
			}
			var rt uint64 // the bits of the largest magnitude, NaN's the largest
			for _, x := range row {
				rt = max(rt, math.Float64bits(x)&^(1<<63))
			}
			if rt == 0 {
				*word |= bit
			}
			top = max(top, rt)
			la.GramAddRow(g, row)
		}
		t.tops[b] = top
	})
	gram := la.NewDense(c, c)
	for b := range nb {
		for a := range c {
			o := b*c*c + a*c
			la.VecAdd(gram.Data[a*c+a:(a+1)*c], t.grams[o+a:o+c])
		}
	}
	la.MirrorUpper(gram)
	const one = 0x3ff0000000000000 // the bits of 1.0
	if nb > 0 && slices.Max(t.tops) > one {
		return gram, nil
	}
	return gram, zero
}

// grow returns s resized to n elements, reallocated only when its capacity
// is short; the elements' values are not kept.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
