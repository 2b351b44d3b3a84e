// Package la provides the small dense linear-algebra kernels that CP-ALS
// needs: row-major dense matrices, gram matrices, Hadamard and Khatri-Rao
// products, a symmetric Jacobi eigensolver, and the Moore-Penrose
// pseudo-inverse. Factor matrices in CP decompositions are tall and skinny
// (millions of rows, rank R columns with R typically 2..64), so everything
// here is optimized for small R: gram and pinv work on R x R matrices and
// the hot per-row kernels operate on length-R slices.
package la

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom wraps data (not copied) as an r x c matrix.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("la: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// Ones returns an r x c matrix of ones — the neutral element of Hadamard
// products, as Identity is for Mul.
func Ones(r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Gram computes m' * m, the Cols x Cols gram matrix. For a factor matrix A
// this is the A^T A term of the CP-ALS normal equations.
func (m *Dense) Gram() *Dense {
	g := NewDense(m.Cols, m.Cols)
	GramAccumulate(g, m)
	return g
}

// GramAccumulate adds m' * m into g (g must be Cols x Cols and symmetric on
// entry, as a zero matrix or an earlier gram is). Splitting accumulation out
// lets distributed callers sum per-partition grams.
//
// Only the upper triangle is accumulated; the lower one is its mirror. For
// finite m that is bit for bit what accumulating all Cols x Cols entries
// gives: ra*rb == rb*ra, both triangles sum their terms in row order, and
// they differ only in which ±0 terms the ra == 0 skip drops — which cannot
// change a sum that started at +0 or at any nonzero value.
func GramAccumulate(g *Dense, m *Dense) {
	if g.Rows != m.Cols || g.Cols != m.Cols {
		panic("la: gram accumulate dimension mismatch")
	}
	c := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*c : (i+1)*c]
		for a, ra := range row {
			if ra == 0 {
				continue
			}
			gr := g.Data[a*c : (a+1)*c]
			b := a
			for ; b+4 <= c; b += 4 {
				r, s := row[b:b+4:b+4], gr[b:b+4:b+4]
				s[0] += float64(ra * r[0])
				s[1] += float64(ra * r[1])
				s[2] += float64(ra * r[2])
				s[3] += float64(ra * r[3])
			}
			for ; b < c; b++ {
				gr[b] += float64(ra * row[b])
			}
		}
	}
	for a := 0; a < c; a++ {
		for b := a + 1; b < c; b++ {
			g.Data[b*c+a] = g.Data[a*c+b]
		}
	}
}

// Mul returns a * b. Intended for small (rank-sized) matrices.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("la: mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Hadamard returns the element-wise product a .* b.
func Hadamard(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: hadamard dimension mismatch")
	}
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// HadamardInto computes dst = a .* b in place over dst's storage.
func HadamardInto(dst, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("la: hadamard dimension mismatch")
	}
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// Scale multiplies every element of m by s, in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// MaxAbsDiff returns max_ij |a(i,j) - b(i,j)|.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i, v := range a.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ColumnNorms returns the Euclidean norm of each column of m.
func (m *Dense) ColumnNorms() []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v * v
		}
	}
	for j := range sums {
		sums[j] = math.Sqrt(sums[j])
	}
	return sums
}

// FlushBelow is the magnitude under which a normalized factor entry is
// stored as +0. Entries of a unit-norm column that small carry no value — one
// adds less than 2^-75 ulp(1) to any gram entry or score it enters — but left
// alone they make every kernel downstream run in the CPU's subnormal slow
// path: the product of two ~1e-160 normals is already subnormal. At 2^-128 a
// product of up to seven entries (tensor order <= 8) stays a normal number.
const FlushBelow = 0x1p-128

// scaleRows divides rows [lo, hi) of m by norms element by element, storing
// quotients of magnitude below FlushBelow (-0 included) as +0.
func (m *Dense) scaleRows(lo, hi int, norms []float64) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		for j, n := range norms {
			v := row[j] / n
			if math.Abs(v) < FlushBelow {
				v = 0
			}
			row[j] = v
		}
	}
}

// NormalizeColumns divides each column by its norm and returns the norms
// (the lambda vector of CP-ALS). Zero-norm columns report a norm of 1 so
// downstream scaling is a no-op. Quotients of magnitude below FlushBelow are
// stored as +0.
func (m *Dense) NormalizeColumns() []float64 {
	norms := m.ColumnNorms()
	for j, n := range norms {
		if n == 0 {
			norms[j] = 1
		}
	}
	m.scaleRows(0, m.Rows, norms)
	return norms
}

// ErrSingular is reported by Solve when the system has no unique solution.
var ErrSingular = errors.New("la: singular matrix")

// Solve solves a x = b for square a via Gaussian elimination with partial
// pivoting. a and b are not modified. Used by tests as an independent check
// on Pinv.
func Solve(a *Dense, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || len(b) != a.Rows {
		panic("la: solve dimension mismatch")
	}
	n := a.Rows
	aug := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		piv, pv := col, math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > pv {
				piv, pv = r, v
			}
		}
		if pv < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			pr, cr := aug.Row(piv), aug.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		d := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / d
			if f == 0 {
				continue
			}
			rr, cr := aug.Row(r), aug.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for j := r + 1; j < n; j++ {
			s -= aug.At(r, j) * x[j]
		}
		x[r] = s / aug.At(r, r)
	}
	return x, nil
}
