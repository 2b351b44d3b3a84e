package cpals

import (
	"math"
	"runtime"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// gatherBlock is how many nonzeros MTTKRPAccumulate copies out of the entry
// array before it computes on them. At rank 16 every size from 64 to 1024
// measures within noise of any other (EXPERIMENTS.md), so it is a constant.
const gatherBlock = 256

// warmBytes caps the factor and output rows one block reads, so that what the
// warm pass loads is still cached when the compute pass gets to it: past
// about 1 MB per block the rank-64 order-4 kernel runs 2x slower, not faster.
// Only ranks above 21 (order 3) or 16 (order 4) get a shorter block from it.
const warmBytes = 128 << 10

// gathered is one block of nonzeros as columns: output row, value, and the
// index along each other mode (ascending mode order).
type gathered struct {
	rows [gatherBlock]uint32
	vals [gatherBlock]float64
	cols [tensor.MaxOrder - 1][gatherBlock]uint32
}

// MTTKRPAccumulate is the one per-nonzero COO MTTKRP loop of the repository.
// It adds the mode-`mode` terms of a sequence of nonzeros to out, whose row
// 0 is output row rowLo: the nonzeros are entries[perm[0]], entries[perm[1]],
// ... when perm is non-nil (a slice of tensor.ModeIndex.Perm) and entries
// itself, in order, when perm is nil (a dist shard, already in Perm order).
// factors[mode] is not read and may be nil.
//
// Per output value it performs exactly the floating-point operations of the
// reference MTTKRP in the same order — the value times the other modes'
// factor entries in ascending mode order, each product rounded, then one
// addition into the output — so callers that present each output row's
// nonzeros in storage order get the reference's bits (DESIGN §9).
func MTTKRPAccumulate(out *la.Dense, rowLo int, entries []tensor.Entry, perm []int32, mode int, factors []*la.Dense) {
	n := len(entries)
	if perm != nil {
		n = len(perm)
	}
	var others [tensor.MaxOrder - 1]int
	nOther := 0
	for m := range factors {
		if m != mode {
			others[nOther] = m
			nOther++
		}
	}
	block := gatherBlock
	if perNNZ := 8 * out.Cols * (nOther + 1); perNNZ*block > warmBytes {
		block = max(8, warmBytes/perNNZ)
	}
	var g gathered
	for lo := 0; lo < n; lo += block {
		cnt := min(block, n-lo)
		// Gather: loads only, so the cache misses of a block overlap
		// instead of each waiting behind the previous nonzero's arithmetic.
		for j := range g.rows[:cnt] {
			p := lo + j
			if perm != nil {
				p = int(perm[p])
			}
			e := &entries[p]
			g.rows[j], g.vals[j] = e.Idx[mode], e.Val
			for k, m := range others[:nOther] {
				g.cols[k][j] = e.Idx[m]
			}
		}
		// Warm: one load per cache line of every factor row the block will
		// read, again with nothing between the loads to wait for. KeepAlive
		// is what stops the compiler from deleting them.
		var warm uint64
		for k, m := range others[:nOther] {
			f := factors[m]
			for _, i := range g.cols[k][:cnt] {
				row := f.Row(int(i))
				for c := 0; c < len(row); c += 8 {
					warm ^= math.Float64bits(row[c])
				}
			}
		}
		runtime.KeepAlive(warm)
		// Compute, one run of equal output rows at a time: the row slice is
		// derived once per run and accumulated in place.
		for j := 0; j < cnt; {
			r := g.rows[j]
			acc := out.Row(int(r) - rowLo)
			switch nOther {
			case 2:
				fa, fb := factors[others[0]], factors[others[1]]
				for ; j < cnt && g.rows[j] == r; j++ {
					v := g.vals[j]
					a := fa.Row(int(g.cols[0][j]))[:len(acc)]
					b := fb.Row(int(g.cols[1][j]))[:len(acc)]
					for c := range acc {
						acc[c] += float64(float64(v*a[c]) * b[c])
					}
				}
			case 3:
				fa, fb, fd := factors[others[0]], factors[others[1]], factors[others[2]]
				for ; j < cnt && g.rows[j] == r; j++ {
					v := g.vals[j]
					a := fa.Row(int(g.cols[0][j]))[:len(acc)]
					b := fb.Row(int(g.cols[1][j]))[:len(acc)]
					d := fd.Row(int(g.cols[2][j]))[:len(acc)]
					for c := range acc {
						acc[c] += float64(float64(float64(v*a[c])*b[c]) * d[c])
					}
				}
			default:
				var rows [tensor.MaxOrder - 1][]float64
				for ; j < cnt && g.rows[j] == r; j++ {
					v := g.vals[j]
					for k, m := range others[:nOther] {
						rows[k] = factors[m].Row(int(g.cols[k][j]))[:len(acc)]
					}
					for c := range acc {
						x := v
						for _, f := range rows[:nOther] {
							x = float64(x * f[c])
						}
						acc[c] += x
					}
				}
			}
		}
	}
}
