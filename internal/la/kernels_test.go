package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cstf/internal/par"
	"cstf/internal/rng"
)

// refGramAccumulate is the full Cols x Cols triple loop GramAccumulate was
// before it accumulated the upper triangle only.
func refGramAccumulate(g, m *Dense) {
	c := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*c : (i+1)*c]
		for a := 0; a < c; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			gr := g.Data[a*c : (a+1)*c]
			for b := 0; b < c; b++ {
				gr[b] += ra * row[b]
			}
		}
	}
}

// refGramParallel is GramParallel's reduction — one partial per par.BlockSize
// rows, summed in block order — over refGramAccumulate.
func refGramParallel(m *Dense) *Dense {
	g := NewDense(m.Cols, m.Cols)
	nb := par.NumBlocks(m.Rows)
	if nb == 1 {
		refGramAccumulate(g, m)
		return g
	}
	for b := 0; b < nb; b++ {
		lo, hi := par.Block(b, m.Rows)
		p := NewDense(m.Cols, m.Cols)
		refGramAccumulate(p, &Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]})
		for i, v := range p.Data {
			g.Data[i] += v
		}
	}
	return g
}

// refVecMatInto is the load-add-store loop VecMatInto was before it
// accumulated in registers.
func refVecMatInto(dst, x []float64, m *Dense) {
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, mv := range m.Row(i) {
			dst[j] += xv * mv
		}
	}
}

// refVecDot is the one-term-per-step loop VecDot was before it took four.
func refVecDot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// sameBits reports the first index where a and b differ in bit pattern
// (so +0 and -0 differ), or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

var kernelRanks = []int{1, 5, 8, 16, 63, 64, 130}

// kernelOperand builds a rows x cols matrix of the named kind: "dense" is
// uniform in (-0.5, 0.5); "zero99" is that with 99 % of its rows all zero,
// the shape of an MTTKRP output on a hyper-sparse tensor; "signed-zeros" has
// two thirds of its entries +0 or -0; "tiny" has magnitudes spread
// log-uniformly over 1e-300..1, what factor rows look like while a model
// collapses — normal numbers whose products underflow.
func kernelOperand(kind string, rows, cols int, seed uint64) *Dense {
	m := randTall(rows, cols, seed)
	switch kind {
	case "zero99":
		for i := 0; i < rows; i++ {
			if rng.UniformAt(seed+1, uint64(i)) < 0.99 {
				clear(m.Row(i))
			}
		}
	case "signed-zeros":
		for i := range m.Data {
			switch u := rng.UniformAt(seed+2, uint64(i)); {
			case u < 1.0/3:
				m.Data[i] = 0
			case u < 2.0/3:
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	case "tiny":
		for i := range m.Data {
			m.Data[i] *= math.Pow(10, -300*rng.UniformAt(seed+3, uint64(i)))
		}
	}
	return m
}

var kernelKinds = []string{"dense", "zero99", "signed-zeros"}

func TestGramMatchesReferenceBitwise(t *testing.T) {
	for _, c := range kernelRanks {
		for _, kind := range kernelKinds {
			for _, rows := range []int{1, 2*par.BlockSize + 77} {
				m := kernelOperand(kind, rows, c, uint64(c))
				name := fmt.Sprintf("%s %dx%d", kind, rows, c)
				want := refGramParallel(m)
				for _, w := range []int{1, 2, 4} {
					if i := sameBits(GramParallel(m, w).Data, want.Data); i >= 0 {
						t.Fatalf("%s workers %d: GramParallel differs from the reference at %d", name, w, i)
					}
				}
				// Into a non-zero symmetric g, as the dist worker's
				// per-block accumulation does.
				g, ref := want.Clone(), want.Clone()
				GramAccumulate(g, m)
				refGramAccumulate(ref, m)
				if i := sameBits(g.Data, ref.Data); i >= 0 {
					t.Fatalf("%s: GramAccumulate into a non-zero g differs from the reference at %d", name, i)
				}
			}
		}
	}
}

func TestVecKernelsMatchReferenceBitwise(t *testing.T) {
	for _, r := range kernelRanks {
		a, b := kernelOperand("dense", 1, r, 7).Data, kernelOperand("signed-zeros", 1, r, 8).Data
		if got, want := VecDot(a, b), refVecDot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("VecDot at length %d: %v, reference %v", r, got, want)
		}
		for _, c := range []int{r, 3} {
			pinv := randTall(r, c, uint64(100+r))
			for _, kind := range kernelKinds {
				m := kernelOperand(kind, 400, r, uint64(r))
				got, want := make([]float64, c), make([]float64, c)
				for i := 0; i < m.Rows; i++ {
					for j := range got {
						got[j] = math.NaN() // dst's old contents must not matter
					}
					VecMatInto(got, m.Row(i), pinv)
					refVecMatInto(want, m.Row(i), pinv)
					if j := sameBits(got, want); j >= 0 {
						t.Fatalf("%s %d->%d row %d: VecMatInto differs from the reference at %d: %v vs %v",
							kind, r, c, i, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// Random shapes, zero densities and magnitudes (down to where products
// underflow): both kernels keep the reference's bits.
func TestKernelsMatchReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := rand.New(rand.NewSource(seed))
		rows, c := 1+g.Intn(300), 1+g.Intn(140)
		zero, scale := g.Float64(), math.Pow(10, -200*g.Float64())
		m := NewDense(rows, c)
		for i := range m.Data {
			if g.Float64() >= zero {
				m.Data[i] = g.NormFloat64() * scale
			}
		}
		got, want := NewDense(c, c), NewDense(c, c)
		GramAccumulate(got, m)
		refGramAccumulate(want, m)
		if sameBits(got.Data, want.Data) >= 0 {
			return false
		}
		sq := randTall(c, c, uint64(seed))
		x, y := make([]float64, c), make([]float64, c)
		for i := 0; i < rows; i++ {
			VecMatInto(x, m.Row(i), sq)
			refVecMatInto(y, m.Row(i), sq)
			if sameBits(x, y) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// The flush rule at its boundary: a quotient of magnitude FlushBelow is kept,
// the next float below it is stored as +0, on both sides of zero, by both
// normalizers; a zero-norm column reports 1 and stays zero.
func TestNormalizeFlushBoundary(t *testing.T) {
	below := math.Nextafter(FlushBelow, 0)
	// Column 0 has norm exactly 1 (one entry of 1; the rest vanish in the
	// sum of squares), so its quotients are its entries; column 1 is zero.
	build := func() *Dense {
		m := NewDense(6, 2)
		for i, v := range []float64{1, FlushBelow, below, -FlushBelow, -below, 0x1p-1000} {
			m.Set(i, 0, v)
		}
		return m
	}
	want := []float64{1, FlushBelow, 0, -FlushBelow, 0, 0}
	check := func(name string, m *Dense, norms []float64) {
		t.Helper()
		if norms[0] != 1 || norms[1] != 1 {
			t.Fatalf("%s: norms %v, want [1 1]", name, norms)
		}
		for i, w := range want {
			if got := m.At(i, 0); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("%s: row %d: got %g (bits %x), want %g", name, i, got, math.Float64bits(got), w)
			}
			if got := m.At(i, 1); math.Float64bits(got) != 0 {
				t.Errorf("%s: zero column touched at row %d: %g", name, i, got)
			}
		}
	}
	seq := build()
	check("NormalizeColumns", seq, seq.NormalizeColumns())
	blk := build()
	check("NormalizeColumnsParallel", blk, NormalizeColumnsParallel(blk, 4))
}
