package cpals

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cstf/internal/la"
)

// refTail is the mode update's tail as a sequence of whole-matrix passes,
// each its own la function: the lambda pre-scale (scale non-nil), the
// rule's row solve of the listed rows (nil: all), a copy when the sampler
// owns u, the normalize, the gram and the zero-row scan. It returns the new
// factor, lambda, the gram and the marks.
func refTail(u, m, v *la.Dense, rows []int, scale []float64, r Rule, owned bool, w int) (*la.Dense, []float64, *la.Dense, []uint64) {
	if scale != nil {
		la.ScaleColumnsParallel(u, scale, w)
	}
	pinv, n := r.pinv(v), u.Rows
	if rows != nil {
		n = len(rows)
	}
	la.RowBlocksApply(w, n, func(lo, hi int) {
		sat := make([]byte, u.Cols)
		for k := lo; k < hi; k++ {
			i := k
			if rows != nil {
				i = rows[k]
			}
			r.solveRow(u.Row(i), m.Row(i), v, pinv, sat)
		}
	})
	f := u
	if owned {
		f = u.Clone()
	}
	lambda := la.NormalizeColumnsParallel(f, w)
	return f, lambda, la.GramParallel(f, w), scanMarks(f)
}

// tailInputs are a factor u, an MTTKRP m and a V of n rows at rank whose
// update meets every case the fused tail treats apart: rows of m and u that
// are all +0 and all -0, rows that flush below la.FlushBelow, subnormal
// rows, negative rows (which the nonnegative rule clips) and, above rank 1,
// a last column that is zero in u, m and V. Unless finite, m holds a NaN
// and an Inf and u a NaN, so some norm is NaN.
func tailInputs(n, rank int, finite bool) (u, m, v *la.Dense) {
	u, m = InitFactor(3, 0, n, rank), InitFactor(4, 1, n, rank)
	for i := 0; i < n; i++ {
		ur, mr := u.Row(i), m.Row(i)
		for c := range ur {
			switch i % 11 {
			case 0:
				ur[c], mr[c] = 0, 0
			case 1:
				ur[c], mr[c] = math.Copysign(0, -1), math.Copysign(0, -1)
			case 2:
				ur[c] *= 1e-200
				mr[c] *= 1e-200
			case 3:
				ur[c] *= 0x1p-1060
				mr[c] *= 0x1p-1060
			case 4:
				ur[c], mr[c] = -ur[c], -mr[c]
			}
		}
		if rank > 1 {
			ur[rank-1], mr[rank-1] = 0, 0
		}
	}
	v = InitFactor(5, 2, rank+3, rank).Gram()
	if rank > 1 {
		for c := 0; c < rank; c++ {
			v.Set(rank-1, c, 0)
			v.Set(c, rank-1, 0)
		}
	}
	if !finite {
		m.Row(n - 1)[rank-1] = math.Inf(-1)
		m.Row(n / 2)[0] = math.NaN()
		u.Row(n / 3)[0] = math.NaN()
	}
	return u, m, v
}

// update runs both passes of t over mode n's factor, as a solve does.
func (t *tail) update(n int, f, u, m, v *la.Dense, rows []int, scale []float64, r Rule) ([]float64, *la.Dense, []uint64) {
	z := t.marks(n, u.Rows)
	lambda := t.solve(u, m, v, rows, scale, r, z)
	gram, z := t.refresh(f, u, lambda, z)
	return lambda, gram, z
}

// checkTail compares the fused tail's outputs with the sequence's bit for
// bit: the factor, lambda, the gram and the marks.
func checkTail(t *testing.T, label string, f, wantF *la.Dense, lambda, wantLambda []float64, gram, wantGram *la.Dense, z, wantZ []uint64) {
	t.Helper()
	if i := bitsEqual(f.Data, wantF.Data, false); i >= 0 {
		t.Fatalf("%s: factor element %d is %x, the sequence's %x", label, i, math.Float64bits(f.Data[i]), math.Float64bits(wantF.Data[i]))
	}
	if i := bitsEqual(lambda, wantLambda, false); i >= 0 || len(lambda) != len(wantLambda) {
		t.Fatalf("%s: lambda %v, the sequence's %v", label, lambda, wantLambda)
	}
	if i := bitsEqual(gram.Data, wantGram.Data, false); i >= 0 {
		t.Fatalf("%s: gram element %d is %x, the sequence's %x", label, i, math.Float64bits(gram.Data[i]), math.Float64bits(wantGram.Data[i]))
	}
	if (z == nil) != (wantZ == nil) {
		t.Fatalf("%s: marks %v, the scan's %v", label, z != nil, wantZ != nil)
	}
	for k := range wantZ {
		if z[k] != wantZ[k] {
			t.Fatalf("%s: marks word %d is %x, the scan's %x", label, k, z[k], wantZ[k])
		}
	}
}

// The fused tail is the whole-matrix sequence bit for bit at any worker
// count: least squares and the nonnegative rule, every row or a subset that
// crosses block boundaries, in place (with the pre-scale where the solve
// applies it) or into a fresh matrix, with finite inputs and with a NaN
// norm, which must keep the zero-row skip from firing.
func TestModeTailMatchesSequence(t *testing.T) {
	workers := []int{1, 2, 3, 8}
	if raceEnabled {
		workers = []int{1, 3}
	}
	for _, n := range []int{1, 2047, 2048, 2049, 5000} {
		var subset []int
		for i := 0; i < n; i++ {
			if i%3 == 0 || i >= 2040 && i < 2056 {
				subset = append(subset, i)
			}
		}
		for _, rank := range []int{1, 5, 16, 64} {
			for _, r := range []Rule{{}, {Nonneg: true, Inner: 1}, {Nonneg: true, Inner: 3}} {
				// Past these sizes a case runs the same blocks as a smaller
				// one, only slower.
				if rank == 64 && n != 1 && n != 2049 || r.Nonneg && n*rank > 2049*16 || raceEnabled && (rank > 5 || n == 2047 || n == 5000) {
					continue
				}
				for _, rows := range [][]int{nil, subset} {
					for _, owned := range []bool{false, true} {
						var scale []float64
						if !owned && (rows != nil || r.Nonneg) {
							scale = make([]float64, rank)
							for c := range scale {
								scale[c] = 0.5 + float64(c)/float64(rank)
							}
						}
						for _, finite := range []bool{true, false} {
							label := fmt.Sprintf("%d rows rank %d %+v subset %v owned %v finite %v", n, rank, r, rows != nil, owned, finite)
							u, m, v := tailInputs(n, rank, finite)
							wantF, wantLambda, wantGram, wantZ := refTail(u.Clone(), m, v, rows, scale, r, owned, 1)
							if finite && rank > 1 && wantLambda[rank-1] != 1 {
								t.Fatalf("%s: the last column is not zero", label)
							}
							if !finite && !math.IsNaN(wantLambda[0]) {
								t.Fatalf("%s: no norm is NaN", label)
							}
							for _, w := range workers {
								tl, uw := &tail{w: w, zero: make([][]uint64, 3)}, u.Clone()
								f := uw
								if owned {
									f = la.NewDense(n, rank)
								}
								// A stale bitset from an earlier step.
								stale := tl.marks(0, n)
								for k := range stale {
									stale[k] = 0x5555555555555555
								}
								lambda, gram, z := tl.update(0, f, uw, m, v, rows, scale, r)
								checkTail(t, fmt.Sprintf("%s workers %d", label, w), f, wantF, lambda, wantLambda, gram, wantGram, z, wantZ)
							}
						}
					}
				}
			}
		}
	}
}

// The initial factors' pass, which takes the gram and the marks without
// scaling, is la.GramParallel and the zero-row scan: no marks where an
// entry exceeds 1 or is not finite, exact marks where every entry is in
// [-1, 1].
func TestModeTailRefreshesInitialFactors(t *testing.T) {
	for _, n := range []int{1, 2047, 2049, 5000} {
		for _, rank := range []int{1, 5, 64} {
			if raceEnabled && n*rank > 2049*5 {
				continue
			}
			for _, bound := range []float64{1.1, 1, math.NaN(), math.Inf(1)} {
				f := InitFactor(7, 0, n, rank) // entries in [0.1, 1.1)
				for i := 0; i < n; i++ {
					row := f.Row(i)
					for c := range row {
						switch {
						case i%5 == 0:
							row[c] = math.Copysign(0, float64(c%2*2-1))
						case bound <= 1 && row[c] > bound:
							row[c] = -bound
						}
					}
				}
				if bound != bound || math.IsInf(bound, 0) {
					f.Row(n - 1)[0] = bound
				}
				wantGram, wantZ := la.GramParallel(f, 1), scanMarks(f)
				for _, w := range []int{1, 3} {
					tl := &tail{w: w, zero: make([][]uint64, 3)}
					gram, z := tl.refresh(f, f, nil, tl.marks(2, n))
					label := fmt.Sprintf("%d rows rank %d bound %g workers %d", n, rank, bound, w)
					checkTail(t, label, f, f, nil, nil, gram, wantGram, z, wantZ)
				}
			}
		}
	}
}

// BenchmarkModeTail times the mode update's tail on two factor shapes, dense
// and collapsed onto 64 live rows (als4-tall's steady state): "sequence" is
// the whole-matrix passes (refTail), "fused" the two-pass tail a solve runs,
// both least squares over every row in place on two workers. It reports
// ns/row; each run copies the factor in first, outside the timer.
func BenchmarkModeTail(b *testing.B) {
	const workers = 2
	for _, shape := range []struct{ rows, rank int }{{120000, 64}, {40000, 16}} {
		for _, collapsed := range []bool{false, true} {
			u, m := InitFactor(3, 0, shape.rows, shape.rank), InitFactor(4, 1, shape.rows, shape.rank)
			v := InitFactor(5, 2, shape.rank+3, shape.rank).Gram()
			state := "dense"
			if collapsed {
				state = "collapsed"
				live := 0
				for i := 0; i < shape.rows; i++ {
					if i%(shape.rows/64) != 0 || live == 64 {
						clear(u.Row(i))
						clear(m.Row(i))
					} else {
						live++
					}
				}
			}
			for _, fused := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/sequence", shape.rows, shape.rank, state)
				if fused {
					name = fmt.Sprintf("%dx%d/%s/fused", shape.rows, shape.rank, state)
				}
				b.Run(name, func(b *testing.B) {
					f := u.Clone()
					tl := &tail{w: workers, zero: make([][]uint64, 1)}
					var elapsed time.Duration
					for i := 0; i < b.N; i++ {
						copy(f.Data, u.Data)
						start := time.Now()
						if fused {
							tl.update(0, f, f, m, v, nil, nil, Rule{})
						} else {
							refTail(f, m, v, nil, nil, Rule{}, false, workers)
						}
						elapsed += time.Since(start)
					}
					b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*shape.rows), "ns/row")
				})
			}
		}
	}
}
