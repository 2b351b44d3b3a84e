package cpals

import "cstf/internal/la"

// Rule is how a mode update turns M into factor rows. The zero Rule is
// least squares, Algorithm 1's row solve A_n = M * pinv(V) with V the
// Hadamard of the other modes' grams. Nonneg selects nonnegative CP (the
// ncp algorithm) by column-wise saturating coordinate descent: each row
// solves
//
//	min_{u_i >= 0}  0.5 * u_i V u_i^T - u_i . m_i
//
// by cycling the coordinates in fixed order and clipping each exact
// single-coordinate minimizer at the zero bound, Inner passes at most.
// Elements pinned at zero whose partial gradient points into the constraint
// are SATURATED: later passes of the same row problem skip them (on
// implicit-feedback tensors most are, and the factors come out mostly
// sparse). The first pass checks every coordinate, so the saturation flags
// live for one row problem and the rule carries no state between updates;
// a checkpoint records Inner (ckpt.File.NTF), which a resume must reuse.
//
// Determinism: for a fixed seed the factors are bitwise identical across
// runs and across Parallelism values under either rule. Rows are
// independent, the coordinate order inside a row is fixed, and every
// cross-row reduction (norms, grams, fits) runs in fixed block order.
//
// Monotonicity of the nonnegative rule: every coordinate update is the
// exact minimizer of a convex quadratic along that coordinate projected
// onto [0, inf), and a skipped (saturated) update leaves the objective
// unchanged, so the reconstruction error is non-increasing — and the fit
// non-decreasing — after every completed sweep.
//
// A Rule is a plain value, not a closure, so it can travel as a task
// parameter.
type Rule struct {
	Nonneg bool
	Inner  int // coordinate-descent passes per row problem (Nonneg only)
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
