package cpals

import (
	"fmt"
	"math"
	"testing"

	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// bitsEqual reports the first element where a and b differ in their bit
// patterns, the sign of zero included, or -1. With anyNaN, two NaNs are
// equal whatever their payloads: where two NaN terms meet, the oracle keeps
// one payload and the kernel the other.
func bitsEqual(a, b []float64, anyNaN bool) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(anyNaN && math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

func hasNaN(m *la.Dense) bool {
	for _, v := range m.Data {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// skipTestFactors are factors for x with entries in [-1, 1] whose rows i of
// mode m for which zero(m, i) holds are all zero, -0 in odd rows and +0 in
// even ones; past its first column, every fifth entry of a live row is -0.
func skipTestFactors(x *tensor.COO, rank int, zero func(m, i int) bool) []*la.Dense {
	factors := make([]*la.Dense, x.Order())
	for n := range factors {
		f := InitFactor(uint64(rank), n, x.Dims[n], rank)
		for i := 0; i < f.Rows; i++ {
			row := f.Row(i)
			for c := range row {
				switch {
				case zero(n, i):
					row[c] = math.Copysign(0, float64(1-2*(i%2)))
				case c > 0 && (i+c)%5 == 0:
					row[c] = math.Copysign(0, -1)
				default:
					row[c] *= 0.9 // InitFactor's entries reach 1.1
				}
			}
		}
		factors[n] = f
	}
	return factors
}

// specialTensor is kernelTestTensor with some values -0, ±Inf, NaN or huge
// (1e300), many of them on nonzeros that meet a zero row.
func specialTensor(order int) *tensor.COO {
	x := kernelTestTensor(order, false)
	for p := range x.Entries {
		v := &x.Entries[p].Val
		switch {
		case p%97 == 0:
			*v = math.Inf(1)
		case p%89 == 0:
			*v = math.Inf(-1)
		case p%83 == 0:
			*v = math.NaN()
		case p%79 == 0:
			*v = 1e300
		case p%7 == 0:
			*v = math.Copysign(0, -1)
		}
	}
	return x
}

// checkSource runs a COOSource told about factors over every mode of x on
// three goroutines, whole — through the mode index and through the mode
// columns a solve holds — and as a row set. Each output must be the plain
// kernel's bit for bit and the entry-order oracle's up to NaN payloads;
// open reports, per mode, whether the skipping gather must run.
func checkSource(t *testing.T, label string, x *tensor.COO, factors []*la.Dense, open func(mode int) bool) {
	t.Helper()
	src, held := &COOSource{Workers: 3}, &COOSource{Workers: 3}
	defer held.keepColumns(x, 3)()
	for n, f := range factors {
		src.FactorUpdated(n, f, scanMarks(f))
		held.FactorUpdated(n, f, scanMarks(f))
	}
	for mode := range factors {
		want := MTTKRP(x, mode, factors)
		plain := MTTKRPWorkers(x, mode, factors, 1, nil, nil)
		if i := bitsEqual(plain.Data, want.Data, true); i >= 0 {
			t.Fatalf("%s mode %d: the plain kernel differs from the oracle at element %d", label, mode, i)
		}
		out := la.NewDense(x.Dims[mode], factors[0].Cols)
		for _, s := range []*COOSource{src, held} {
			through := "the mode index"
			if s.res != nil {
				through = "the mode columns"
			}
			if got := s.skipMarks(x, mode, factors) != nil; got != open(mode) {
				t.Fatalf("%s mode %d, %s: skipping gather %v, want %v", label, mode, through, got, open(mode))
			}
			out.Zero()
			if err := s.MTTKRP(x, mode, factors, nil, out); err != nil {
				t.Fatal(err)
			}
			if i := bitsEqual(out.Data, plain.Data, false); i >= 0 {
				t.Fatalf("%s mode %d, %s: element %d is %x, the plain kernel's %x", label, mode, through, i, math.Float64bits(out.Data[i]), math.Float64bits(plain.Data[i]))
			}
		}
		var rows []int
		for i := 0; i < x.Dims[mode]; i += 2 {
			rows = append(rows, i)
		}
		out.Zero()
		if err := src.MTTKRP(x, mode, factors, rows, out); err != nil {
			t.Fatal(err)
		}
		for _, i := range rows {
			if k := bitsEqual(out.Row(i), plain.Row(i), false); k >= 0 {
				t.Fatalf("%s mode %d: row set, row %d column %d is %x, the plain kernel's %x", label, mode, i, k, math.Float64bits(out.Row(i)[k]), math.Float64bits(plain.Row(i)[k]))
			}
		}
	}
}

// The COO source's skipping gather must reproduce the oracle bit for bit
// whatever the factors and values hold: zero rows of -0 and +0, values that
// are ±Inf, NaN or -0 next to a zero row (the oracle's NaN must come out),
// a NaN or an Inf in a live row, and a factor entry above 1 that overflows
// the partial product before it meets a zero row — with the gate open and
// shut.
func TestSkippingGatherBitwiseEqualsOracle(t *testing.T) {
	for order := 2; order <= 5; order++ {
		x := specialTensor(order)
		for _, rank := range []int{1, 16, 64} {
			label := fmt.Sprintf("order %d rank %d", order, rank)
			// A third of every mode's rows are zero, row 0 (the most
			// nonzeros but row 3's) among them: the gate opens everywhere.
			third := func(_, i int) bool { return i%3 == 0 }
			factors := skipTestFactors(x, rank, third)
			meets := 0 // Inf values on a mode-0 row that meet a zero row
			for _, e := range x.Entries {
				for m := 1; m < order; m++ {
					if math.IsInf(e.Val, 0) && third(m, int(e.Idx[m])) {
						meets++
						break
					}
				}
			}
			if meets == 0 {
				t.Fatalf("%s: no Inf value meets a zero row", label)
			}
			checkSource(t, label+" open", x, factors, func(int) bool { return true })
			if rank == 16 {
				// Sorted storage: mode 0's nonzeros stay in the entries.
				y := x.Clone()
				y.Sort()
				checkSource(t, label+" open sorted", y, factors, func(int) bool { return true })
			}

			// Zero rows only where the tensor has no nonzero (index 1 and
			// the last): nothing to drop, so the gate stays shut.
			empty := func(m, i int) bool { return i == 1 || i == x.Dims[m]-1 }
			checkSource(t, label+" shut", x, skipTestFactors(x, rank, empty), func(int) bool { return false })

			if rank != 16 {
				continue // the refusals below do not depend on the rank
			}
			// A NaN in a live row of the last factor and an Inf in one of
			// the first: no mode that reads either may skip.
			poisoned := skipTestFactors(x, rank, third)
			last := order - 1
			poisoned[last].Row(2)[0] = math.NaN()
			poisoned[0].Row(4)[rank-1] = math.Inf(1)
			checkSource(t, label+" non-finite", x, poisoned, func(int) bool { return false })

			// A factor entry of 1e10 times a value of 1e300 is +Inf before
			// the next mode's zero row turns it into NaN.
			if order >= 3 {
				big := skipTestFactors(x, rank, func(m, i int) bool { return m == 2 && i%3 == 0 })
				for i := 0; i < big[1].Rows; i++ {
					big[1].Row(i)[0] = 1e10
				}
				if !hasNaN(MTTKRP(x, 0, big)) {
					t.Fatalf("%s: no overflow meets a zero row", label)
				}
				checkSource(t, label+" overflow", x, big, func(mode int) bool { return mode == 1 })
			}
		}
	}
}

// A COOSource skips only against the factors FactorUpdated named: not
// against a factor swapped in without it, and nothing at all when it is
// built mid-run, as dist's fallback is, until every other mode is named.
func TestSourceSkipsOnlyAnnouncedFactors(t *testing.T) {
	const rank = 16
	x := kernelTestTensor(4, true)
	announced := skipTestFactors(x, rank, func(_, i int) bool { return i%3 == 0 })
	swapped := make([]*la.Dense, len(announced))
	for n := range swapped {
		swapped[n] = InitFactor(7, n, x.Dims[n], rank) // no zero row
	}
	src := &COOSource{Workers: 2}
	for n, f := range announced {
		src.FactorUpdated(n, f, scanMarks(f))
	}
	const mode = 0
	marks := src.skipMarks(x, mode, announced)
	if marks == nil {
		t.Fatal("the announced factors do not open the gate")
	}
	// Marks applied to the swapped-in factors drop live terms.
	stale := la.NewDense(x.Dims[mode], rank)
	mttkrpWorkers(x, mode, swapped, 2, stale, marks)
	want := MTTKRP(x, mode, swapped)
	if bitsEqual(stale.Data, want.Data, false) < 0 {
		t.Fatal("stale marks change nothing here; the test cannot tell")
	}

	mixed := append([]*la.Dense(nil), announced...)
	mixed[2] = swapped[2]
	for _, c := range []struct {
		name    string
		src     *COOSource
		factors []*la.Dense
	}{
		{"swapped in", src, swapped},
		{"one swapped in", src, mixed},
		{"built mid-run", &COOSource{Workers: 2}, announced},
	} {
		if c.src.skipMarks(x, mode, c.factors) != nil {
			t.Errorf("%s: skips against factors it was not told about", c.name)
		}
		out := la.NewDense(x.Dims[mode], rank)
		if err := c.src.MTTKRP(x, mode, c.factors, nil, out); err != nil {
			t.Fatal(err)
		}
		if i := bitsEqual(out.Data, MTTKRP(x, mode, c.factors).Data, false); i >= 0 {
			t.Errorf("%s: element %d differs from the oracle", c.name, i)
		}
	}

	// The source built mid-run skips once it has been told every other
	// mode's factor, and not before.
	late := &COOSource{Workers: 2}
	for n := len(announced) - 1; n >= 1; n-- {
		if late.skipMarks(x, mode, announced) != nil {
			t.Fatalf("skips with mode %d's factor never announced", n)
		}
		late.FactorUpdated(n, announced[n], scanMarks(announced[n]))
	}
	if late.skipMarks(x, mode, announced) == nil {
		t.Error("does not skip once every other mode's factor is announced")
	}
}

// scanMarks is the reference zero-row scan the tail's marks are held to:
// one serial pass over f that marks its all-±0 rows, or nil where an entry
// is not finite or exceeds 1 in magnitude.
func scanMarks(f *la.Dense) []uint64 {
	const one = 0x3ff0000000000000 // the bits of 1.0
	z := make([]uint64, (f.Rows+63)/64)
	for i := 0; i < f.Rows; i++ {
		var top uint64
		for _, v := range f.Row(i) {
			top = max(top, math.Float64bits(v)&^(1<<63))
		}
		if top > one {
			return nil
		}
		if top == 0 {
			z[i/64] |= 1 << (i % 64)
		}
	}
	return z
}

// The marks a solve hands FactorUpdated, taken on several goroutines, are
// exactly the all-zero rows, -0 ones included: of an initial factor, in the
// pass that takes its gram, and of an updated one, after normalize, where a
// row that was live can have flushed to +0. A factor with an entry above 1
// in magnitude or a NaN comes without marks, and nothing is skipped against
// it.
func TestFactorUpdatedMarksZeroRows(t *testing.T) {
	f := InitFactor(1, 0, 5*par.BlockSize+7, 3)
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		for c := range row {
			if i%7 == 0 {
				row[c] = math.Copysign(0, float64(c%2*2-1))
			} else {
				row[c] /= 2
			}
		}
	}
	f.Row(3)[1] = 0 // a zero entry in a live row
	tl := &tail{w: 4, zero: make([][]uint64, 2)}
	src := &COOSource{Workers: 4}
	_, zero := tl.refresh(f, f, nil, tl.marks(1, f.Rows))
	src.FactorUpdated(1, f, zero)
	z := src.zero[1]
	if z.f != f {
		t.Fatal("a factor in [-1, 1] is not marked")
	}
	for i := 0; i < f.Rows; i++ {
		marked := z.bits[i/64]>>(i%64)&1 == 1
		if marked != (i%7 == 0) {
			t.Fatalf("row %d: marked %v", i, marked)
		}
	}
	for _, v := range []float64{1.5, math.Inf(-1), math.NaN()} {
		g := f.Clone()
		g.Row(g.Rows - 1)[2] = v
		_, zero := tl.refresh(g, g, nil, make([]uint64, (g.Rows+63)/64))
		src.FactorUpdated(1, g, zero)
		if src.zero[1].f != nil {
			t.Errorf("a factor holding %g is marked", v)
		}
	}

	// Row 5 is live before normalize, 1e-200 in every column, and all +0
	// after it: the flush zeroes it, and the update marks it.
	g := f.Clone()
	for c := range g.Row(5) {
		g.Row(5)[c] = 1e-200
	}
	_, _, zero = tl.update(1, g, g, g, la.Identity(3), []int{}, nil, Rule{})
	if g.Row(5)[0] != 0 || g.Row(5)[2] != 0 {
		t.Fatalf("row 5 is %v after normalize, want it flushed", g.Row(5))
	}
	src.FactorUpdated(1, g, zero)
	z = src.zero[1]
	if z.f != g || z.bits[0]>>5&1 != 1 {
		t.Error("the flushed row is not marked")
	}
}

// gateSpy counts the MTTKRPs that ran the skipping gather.
type gateSpy struct {
	*COOSource
	calls, open int
}

func (g *gateSpy) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, rows []int, out *la.Dense) error {
	g.calls++
	if g.skipMarks(x, mode, factors) != nil {
		g.open++
	}
	return g.COOSource.MTTKRP(x, mode, factors, rows, out)
}

// The collapsing golden tensor opens the gate once its model has collapsed,
// through the mode index and through the mode columns a solve holds, and
// the solve keeps its pinned bits either way.
func TestCollapseOpensTheGate(t *testing.T) {
	x, opts := collapsingTensor()
	for _, held := range []bool{false, true} {
		spy := &gateSpy{COOSource: &COOSource{Workers: opts.Parallelism}}
		if held {
			defer spy.keepColumns(x, opts.Parallelism)()
		}
		res, err := SolveWith(x, opts, Update{Source: spy})
		if err != nil {
			t.Fatal(err)
		}
		if spy.open == 0 {
			t.Errorf("held columns %v: none of %d MTTKRPs skipped", held, spy.calls)
		}
		t.Logf("held columns %v: %d of %d MTTKRPs skipped", held, spy.open, spy.calls)
		if got, want := resultHash(res), "fab6ee9777bdd519"; got != want {
			t.Errorf("held columns %v: hash %s, want TestSolveGoldenHash's %s", held, got, want)
		}
	}
}
