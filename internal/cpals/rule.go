package cpals

import (
	"cstf/internal/la"
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
// are SATURATED: later passes skip them until the next update's first pass
// re-checks the gradient sign. Rows are independent and the coordinate
// order is fixed, so both rules are bitwise worker-count-invariant.
//
// A Rule is a plain value, not a closure, so it can travel as a task
// parameter.
type Rule struct {
	Nonneg bool
	Inner  int // coordinate-descent passes per row problem (Nonneg only)
}

// apply updates the rows of u from M and V. rows, when non-nil, restricts
// the update to the rows it indexes nonzeros for; the rest keep their
// value. sat is the mode's saturation bitmap (rows x rank, Nonneg only).
func (r Rule) apply(u, m, v *la.Dense, lambda []float64, sat []byte, rows *tensor.ModeIndex, w int) {
	var pinv *la.Dense
	if r.Nonneg {
		// Re-absorb lambda into the mode being solved: with the other
		// factors fixed, u = A_n * diag(lambda) reproduces the current model
		// exactly, so coordinate descent warm-starts from it and the
		// objective can only go down. An empty lambda (first update of a
		// fresh start) is an implicit all-ones.
		if len(lambda) == u.Cols {
			la.ScaleColumnsParallel(u, lambda, w)
		}
	} else {
		pinv = la.Pinv(v)
	}
	rank := u.Cols
	la.RowBlocksApply(w, u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			switch {
			case rows != nil && rows.RowPtr[i+1] == rows.RowPtr[i]:
			case r.Nonneg:
				cdRow(u.Row(i), m.Row(i), v, sat[i*rank:(i+1)*rank], r.Inner)
			default:
				la.VecMatInto(u.Row(i), m.Row(i), pinv)
			}
		}
	})
}

// cdRow runs the coordinate-descent passes of one row problem. Pass 0
// visits every coordinate — re-checking saturated elements and unlocking
// the ones whose partial gradient turned negative — while later passes skip
// saturated elements. A pass that changes nothing ends the row early.
func cdRow(row, mrow []float64, v *la.Dense, srow []byte, inner int) {
	rank := len(row)
	for pass := 0; pass < inner; pass++ {
		changed := false
		for r := 0; r < rank; r++ {
			if pass > 0 && srow[r] != 0 {
				continue // saturated: skip until the next update's re-check
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
