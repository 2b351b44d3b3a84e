package cpals

import (
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Rule is how a mode update turns M into factor rows. The zero Rule is
// least squares, Algorithm 1's row solve A_n = M * pinv(V) with V the
// Hadamard of the other modes' grams. Nonneg selects nonnegative CP by
// column-wise coordinate descent (internal/ntf): each row solves
//
//	min_{u_i >= 0}  0.5 * u_i V u_i^T - u_i . m_i
//
// by cycling the coordinates in fixed order and clipping each exact
// single-coordinate minimizer at the zero bound, Inner passes at most.
// Elements pinned at zero whose partial gradient points into the constraint
// are SATURATED: later passes of the same row problem skip them. The first
// pass checks every coordinate, so the saturation flags live for one row
// problem and the rule carries no state between updates. Rows are
// independent and the coordinate order is fixed, so both rules are bitwise
// worker-count-invariant.
//
// A Rule is a plain value, not a closure, so it can travel as a task
// parameter.
type Rule struct {
	Nonneg bool
	Inner  int // coordinate-descent passes per row problem (Nonneg only)
}

// apply updates the rows of u from M and V. rows, when non-nil, restricts
// the update to the rows it indexes nonzeros for; the rest keep their
// value.
func (r Rule) apply(u, m, v *la.Dense, lambda []float64, rows *tensor.ModeIndex, w int) {
	if r.Nonneg && len(lambda) == u.Cols {
		// Re-absorb lambda into the mode being solved: with the other
		// factors fixed, u = A_n * diag(lambda) reproduces the current model
		// exactly, so coordinate descent warm-starts from it and the
		// objective can only go down. An empty lambda (first update of a
		// fresh start) is an implicit all-ones.
		la.ScaleColumnsParallel(u, lambda, w)
	}
	pinv := r.pinv(v)
	la.RowBlocksApply(w, u.Rows, func(lo, hi int) {
		sat := make([]byte, u.Cols)
		for i := lo; i < hi; i++ {
			if rows == nil || rows.RowPtr[i+1] > rows.RowPtr[i] {
				r.solveRow(u.Row(i), m.Row(i), v, pinv, sat)
			}
		}
	})
}

// SweepRows is the mode update of a row set: one ALS sweep of t under the
// rule that updates only rows[n] (sorted, unique) of each mode n in place,
// each from its own nonzeros, with lambda absorbed into the last mode
// first and every column renormalized into lambda (updated in place) at
// the end. A streamed window applies it to the rows its nonzeros touch.
func (r Rule) SweepRows(t *tensor.COO, lambda []float64, factors []*la.Dense, rows [][]int, w int) {
	la.ScaleColumnsParallel(factors[len(factors)-1], lambda, w)
	grams := make([]*la.Dense, len(factors))
	for n, f := range factors {
		grams[n] = la.GramParallel(f, w)
	}
	for n, touched := range rows {
		if len(touched) == 0 {
			continue
		}
		v := HadamardOfGramsExcept(grams, n)
		pinv := r.pinv(v)
		mi := t.ModeIndex(n)
		f := factors[n]
		// Each row owns its output row and reads only other modes'
		// factors in the stable mode-index order: bitwise for any w.
		par.ForBlocks(w, len(touched), func(lo, hi int) {
			acc := la.NewDense(1, f.Cols)
			sat := make([]byte, f.Cols)
			for _, i := range touched[lo:hi] {
				acc.Zero()
				MTTKRPAccumulate(acc, i, t.Entries, mi.Perm[mi.RowPtr[i]:mi.RowPtr[i+1]], n, factors)
				r.solveRow(f.Row(i), acc.Data, v, pinv, sat)
			}
		})
		grams[n] = la.GramParallel(f, w)
	}
	for c := range lambda {
		lambda[c] = 1
	}
	for _, f := range factors {
		for c, norm := range la.NormalizeColumnsParallel(f, w) {
			lambda[c] *= norm
		}
	}
}

// pinv is the least-squares rule's pinv(V); the nonnegative rule has none.
func (r Rule) pinv(v *la.Dense) *la.Dense {
	if r.Nonneg {
		return nil
	}
	return la.Pinv(v)
}

// solveRow overwrites row with its update from mrow, the row's MTTKRP: the
// least-squares solve through pinv, or the coordinate-descent passes with
// sat (rank bytes) as the row problem's saturation flags.
func (r Rule) solveRow(row, mrow []float64, v, pinv *la.Dense, sat []byte) {
	if r.Nonneg {
		cdRow(row, mrow, v, sat, r.Inner)
	} else {
		la.VecMatInto(row, mrow, pinv)
	}
}

// cdRow runs the coordinate-descent passes of one row problem. Pass 0
// visits every coordinate and sets the saturation flag in srow of each one
// with curvature; later passes skip the saturated ones and, like pass 0,
// those without. So no flag set before the call is ever read, and srow is
// scratch. A pass that changes nothing ends the row early.
func cdRow(row, mrow []float64, v *la.Dense, srow []byte, inner int) {
	rank := len(row)
	for pass := 0; pass < inner; pass++ {
		changed := false
		for r := 0; r < rank; r++ {
			if pass > 0 && srow[r] != 0 {
				continue // saturated in this row problem
			}
			d := v.Data[r*rank+r]
			if d <= 0 {
				continue // collapsed column: no curvature, leave as is
			}
			// Partial gradient of the row objective at the current point:
			// g_r = (u_i V)_r - m_ir.
			g := la.VecDot(row, v.Row(r)) - mrow[r]
			if row[r] == 0 && g >= 0 {
				srow[r] = 1 // pinned at the bound, gradient ascending
				continue
			}
			srow[r] = 0
			nv := row[r] - g/d
			if nv < 0 {
				nv = 0
			}
			if nv != row[r] {
				row[r] = nv
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// project moves a warm-start factor onto the rule's feasible set: a
// nonnegative rule clips it at zero, so a resumed run never reintroduces
// negatives and a foreign (e.g. least-squares) start becomes feasible.
func (r Rule) project(f *la.Dense, w int) {
	if !r.Nonneg {
		return
	}
	la.RowBlocksApply(w, f.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := f.Row(i)
			for c := range row {
				if row[c] < 0 {
					row[c] = 0
				}
			}
		}
	})
}
