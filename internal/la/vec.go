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

// VecDot returns the inner product of a and b, summed in index order (four
// terms per loop step, one running sum).
func VecDot(a, b []float64) float64 {
	var s float64
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s += x[0] * y[0]
		s += x[1] * y[1]
		s += x[2] * y[2]
		s += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
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
//
// An all-zero x — most MTTKRP rows of a hyper-sparse tensor — is one scan
// and a zero fill. Otherwise the nonzero entries of x are found once per
// 64-entry chunk and vecMatChunk accumulates eight output columns at a time
// in registers over them. Each dst[j] still sums its x[i]*m[i][j] terms from
// +0 in increasing i, so the result has the bits of the plain i-then-j loop.
func VecMatInto(dst, x []float64, m *Dense) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("la: vecmat dimension mismatch")
	}
	clear(dst)
	lead := 0
	for lead < len(x) && x[lead] == 0 {
		lead++
	}
	if lead == len(x) {
		return
	}
	var nz [64]uint8
	for base := 0; base < len(x); base += len(nz) {
		xc := x[base:min(base+len(nz), len(x))]
		if n := nonzeros(&nz, xc); n > 0 {
			vecMatChunk(dst, xc, nz[:n], m.Data[base*m.Cols:])
		}
	}
}

// nonzeros stores the positions of the nonzero entries of x (at most
// len(nz) long) in nz, in order, and returns how many there are. It is kept
// out of line because, inlined into VecMatInto's chunk loop, its counter is
// spilled to the stack and the scan — 64 steps against a dense rank-64
// row's 4096 multiply-adds — costs a tenth of the row.
//
//go:noinline
func nonzeros(nz *[64]uint8, x []float64) int {
	n := 0
	for i, xv := range x {
		if xv != 0 {
			nz[n] = uint8(i)
			n++
		}
	}
	return n
}

// vecMatChunk adds sum_i x[i] * (row i of m) to dst over the entries of x
// that nz names, in nz order; m is row-major with len(dst) columns. Every
// product is rounded by an explicit conversion before it is added: no fused
// multiply-add on arm64, as in cpals.MTTKRPAccumulate.
func vecMatChunk(dst, x []float64, nz []uint8, m []float64) {
	c := len(dst)
	j := 0
	for ; j+8 <= c; j += 8 {
		d := dst[j : j+8 : j+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for _, i := range nz {
			xv, o := x[i], int(i)*c+j
			r := m[o : o+8 : o+8]
			a0 += float64(xv * r[0])
			a1 += float64(xv * r[1])
			a2 += float64(xv * r[2])
			a3 += float64(xv * r[3])
			a4 += float64(xv * r[4])
			a5 += float64(xv * r[5])
			a6 += float64(xv * r[6])
			a7 += float64(xv * r[7])
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; j < c; j++ {
		a := dst[j]
		for _, i := range nz {
			a += float64(x[i] * m[int(i)*c+j])
		}
		dst[j] = a
	}
}
