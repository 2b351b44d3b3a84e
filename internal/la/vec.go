package la

import "math"

// The length-R vector helpers below serve the reference MTTKRP, the CSF
// kernel, the fit inner products and the serving scans. The per-nonzero COO
// hot path does not go through them: it is cpals.MTTKRPAccumulate, one fused
// loop.

// VecHadamardInto sets dst[i] = a[i] * b[i].
func VecHadamardInto(dst, a, b []float64) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i, v := range a {
		dst[i] = v * b[i]
	}
}

// VecHadamard returns a new vector a .* b.
func VecHadamard(a, b []float64) []float64 {
	dst := make([]float64, len(a))
	VecHadamardInto(dst, a, b)
	return dst
}

// VecMulInto sets dst[i] *= a[i].
func VecMulInto(dst, a []float64) {
	_ = a[len(dst)-1]
	for i := range dst {
		dst[i] *= a[i]
	}
}

// VecAddScaled computes dst[i] += s * a[i].
func VecAddScaled(dst []float64, s float64, a []float64) {
	_ = a[len(dst)-1]
	for i := range dst {
		dst[i] += s * a[i]
	}
}

// VecAdd computes dst[i] += a[i].
func VecAdd(dst, a []float64) {
	_ = a[len(dst)-1]
	for i := range dst {
		dst[i] += a[i]
	}
}

// VecScale multiplies every element of v by s.
func VecScale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// VecDot returns the inner product of a and b.
func VecDot(a, b []float64) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// VecNorm returns the Euclidean norm of v.
func VecNorm(v []float64) float64 {
	return math.Sqrt(VecDot(v, v))
}

// VecClone returns a copy of v.
func VecClone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// VecMaxAbsDiff returns max_i |a[i]-b[i]|, or +Inf on length mismatch.
func VecMaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i, v := range a {
		if x := math.Abs(v - b[i]); x > d {
			d = x
		}
	}
	return d
}

// MatVec computes y = m * x for a small dense m.
func MatVec(m *Dense, x []float64) []float64 {
	if len(x) != m.Cols {
		panic("la: matvec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = VecDot(m.Row(i), x)
	}
	return y
}

// VecMatInto computes dst = x^T * m for a small dense m (dst length m.Cols).
// This is the "row times R x R matrix" step that applies the pseudo-inverse
// of the gram product to each MTTKRP output row.
func VecMatInto(dst, x []float64, m *Dense) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("la: vecmat dimension mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := m.Row(i)
		for j, mv := range row {
			dst[j] += xv * mv
		}
	}
}
