package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSymmetric(rng *rand.Rand, n int) *Dense {
	m := randDense(rng, n, n)
	return Mul(m.Transpose(), m) // symmetric PSD
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8} {
		a := randSymmetric(rng, n)
		vals, vecs := SymEig(a)
		// Reconstruct V diag(vals) V^T.
		rec := NewDense(n, n)
		for k, lam := range vals {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					rec.Data[i*n+j] += lam * vecs.At(i, k) * vecs.At(j, k)
				}
			}
		}
		if d := MaxAbsDiff(rec, a); d > 1e-8*(1+a.FrobeniusNorm()) {
			t.Fatalf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestSymEigOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSymmetric(rng, 6)
	_, vecs := SymEig(a)
	vtv := Mul(vecs.Transpose(), vecs)
	if d := MaxAbsDiff(vtv, Identity(6)); d > 1e-9 {
		t.Fatalf("eigenvectors not orthonormal, V^T V off by %g", d)
	}
}

func TestSymEigDiagonalMatrix(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 0.5)
	vals, _ := SymEig(a)
	got := append([]float64(nil), vals...)
	// Sort ascending for comparison.
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[j] < got[i] {
				got[i], got[j] = got[j], got[i]
			}
		}
	}
	want := []float64{-1, 0.5, 3}
	if d := VecMaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("eigenvalues %v, want %v", got, want)
	}
}

// Pinv of an invertible matrix must be its inverse.
func TestPinvInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSymmetric(rng, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+1) // ensure well-conditioned
	}
	p := Pinv(a)
	if d := MaxAbsDiff(Mul(a, p), Identity(4)); d > 1e-8 {
		t.Fatalf("A * pinv(A) differs from I by %g", d)
	}
}

// The four Moore-Penrose axioms, checked on rank-deficient matrices. Each
// residual is measured against the matrix it should reproduce: A P A against
// |A|, P A P against |P|. The test used to hold P A P - P to |A| as well and
// failed about once in 300 runs of random seeds — not because Pinv was wrong
// (its vmax*1e-12*n cutoff was nowhere near an eigenvalue) but because a
// full-rank b*b^T with a 6e-7 eigenvalue has |P| = 1.7e6, and a residual of
// 2.8e-5 on that is 1.7e-11 relative. pinvAxiomsSeed pins that input; the
// random inputs come from a fixed source.
const pinvAxiomsSeed int64 = -5383417026009451933

func pinvAxiomsHold(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	rank := 1 + rng.Intn(n)
	// Build a symmetric PSD matrix of known rank.
	b := randDense(rng, n, rank)
	a := Mul(b, b.Transpose())
	p := Pinv(a)
	ap := Mul(a, p)
	pa := Mul(p, a)
	tolA := 1e-7 * (1 + a.FrobeniusNorm())
	tolP := 1e-7 * (1 + p.FrobeniusNorm())
	return MaxAbsDiff(Mul(ap, a), a) <= tolA && // A P A = A
		MaxAbsDiff(Mul(pa, p), p) <= tolP && // P A P = P
		MaxAbsDiff(ap, ap.Transpose()) <= tolA && // (AP)^T = AP
		MaxAbsDiff(pa, pa.Transpose()) <= tolA // (PA)^T = PA
}

func TestPinvMoorePenroseAxioms(t *testing.T) {
	if !pinvAxiomsHold(pinvAxiomsSeed) {
		t.Errorf("axioms fail on the pinned ill-conditioned input %d", pinvAxiomsSeed)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(pinvAxiomsHold, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPinvZeroMatrix(t *testing.T) {
	p := Pinv(NewDense(3, 3))
	if p.FrobeniusNorm() != 0 {
		t.Fatal("pinv of zero matrix must be zero")
	}
}

func TestPinvAgreesWithSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randSymmetric(rng, 5)
	for i := 0; i < 5; i++ {
		a.Set(i, i, a.At(i, i)+2)
	}
	b := make([]float64, 5)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	direct, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	viaPinv := MatVec(Pinv(a), b)
	if d := VecMaxAbsDiff(direct, viaPinv); d > 1e-8 {
		t.Fatalf("pinv solve differs from gaussian solve by %g", d)
	}
}

func TestKhatriRaoDefinition(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(3, 2, []float64{5, 6, 7, 8, 9, 10})
	kr := KhatriRao(a, b)
	if kr.Rows != 6 || kr.Cols != 2 {
		t.Fatalf("kr dims %dx%d", kr.Rows, kr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for r := 0; r < 2; r++ {
				want := a.At(i, r) * b.At(j, r)
				if got := kr.At(i*3+j, r); got != want {
					t.Fatalf("kr(%d,%d) = %v, want %v", i*3+j, r, got, want)
				}
			}
		}
	}
}

// Khatri-Rao gram identity: (A ⊙ B)^T (A ⊙ B) = A^T A .* B^T B.
// This identity is why CP-ALS never needs the explicit Khatri-Rao product.
func TestKhatriRaoGramIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(4)
		a := randDense(rng, 2+rng.Intn(6), r)
		b := randDense(rng, 2+rng.Intn(6), r)
		left := KhatriRao(a, b).Gram()
		right := Hadamard(a.Gram(), b.Gram())
		return MaxAbsDiff(left, right) < 1e-9*(1+left.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVecKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := VecDot(a, b); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	h := make([]float64, len(a))
	VecHadamardInto(h, a, b)
	if h[0] != 4 || h[1] != 10 || h[2] != 18 {
		t.Fatalf("hadamard = %v", h)
	}
	dst := VecClone(a)
	VecAddScaled(dst, 2, b)
	if dst[2] != 15 {
		t.Fatalf("addscaled = %v", dst)
	}
	VecAdd(dst, a)
	if dst[0] != 10 {
		t.Fatalf("add = %v", dst)
	}
	VecScale(dst, 0.5)
	if dst[0] != 5 {
		t.Fatalf("scale = %v", dst)
	}
	VecMulInto(dst, a)
	if dst[2] != 27 {
		t.Fatalf("mulinto = %v", dst)
	}
	if math.Abs(VecNorm([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("norm")
	}
	if !math.IsInf(VecMaxAbsDiff(a, []float64{1}), 1) {
		t.Fatal("maxabsdiff must be +Inf on length mismatch")
	}
}

func TestVecMatInto(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 2}
	dst := make([]float64, 3)
	VecMatInto(dst, x, m)
	want := []float64{9, 12, 15}
	if d := VecMaxAbsDiff(dst, want); d != 0 {
		t.Fatalf("vecmat = %v, want %v", dst, want)
	}
}
