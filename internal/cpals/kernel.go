package cpals

import (
	"math"
	"runtime"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// gatherBlock is how many nonzeros the kernel computes on at a time. At rank
// 16 every size from 64 to 1024 measures within noise of any other
// (EXPERIMENTS.md), so it is a constant.
const gatherBlock = 256

// warmBytes caps the factor and output rows one block reads, so that what the
// warm pass loads is still cached when the compute pass gets to it: past
// about 1 MB per block the rank-64 order-4 kernel runs 2x slower, not faster.
// Only ranks above 21 (order 3) or 16 (order 4) get a shorter block from it.
const warmBytes = 128 << 10

// block is one block of nonzeros as columns: output row, value, and the
// index along each other mode (ascending mode order). The kernel has two
// feeders that fill one: MTTKRPAccumulate gathers entries into stack
// buffers, MTTKRPColumns slices columns that are already resident.
type block struct {
	rows []uint32
	vals []float64
	cols [tensor.MaxOrder - 1][]uint32
}

// plan lists the modes other than `mode`, ascending, into others and returns
// how many there are and the block length for rank-`rank` factors.
func plan(rank, mode int, factors []*la.Dense, others *[tensor.MaxOrder - 1]int) (nOther, blockLen int) {
	for m := range factors {
		if m != mode {
			others[nOther] = m
			nOther++
		}
	}
	blockLen = gatherBlock
	if perNNZ := 8 * rank * (nOther + 1); perNNZ*blockLen > warmBytes {
		blockLen = max(8, warmBytes/perNNZ)
	}
	return nOther, blockLen
}

// MTTKRPAccumulate is the per-nonzero COO MTTKRP over array-of-entries
// storage. It adds the mode-`mode` terms of a sequence of nonzeros to out,
// whose row 0 is output row rowLo: the nonzeros are entries[perm[0]],
// entries[perm[1]], ... when perm is non-nil (a slice of
// tensor.ModeIndex.Perm) and entries itself, in order, when perm is nil.
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
	var (
		others [tensor.MaxOrder - 1]int
		rows   [gatherBlock]uint32
		vals   [gatherBlock]float64
		cols   [tensor.MaxOrder - 1][gatherBlock]uint32
		b      block
	)
	nOther, blockLen := plan(out.Cols, mode, factors, &others)
	for lo := 0; lo < n; lo += blockLen {
		cnt := min(blockLen, n-lo)
		// Gather: loads only, so the cache misses of a block overlap
		// instead of each waiting behind the previous nonzero's arithmetic.
		for j := range rows[:cnt] {
			p := lo + j
			if perm != nil {
				p = int(perm[p])
			}
			e := &entries[p]
			rows[j], vals[j] = e.Idx[mode], e.Val
			for c, m := range others[:nOther] {
				cols[c][j] = e.Idx[m]
			}
		}
		b.rows, b.vals = rows[:cnt], vals[:cnt]
		for c := range others[:nOther] {
			b.cols[c] = cols[c][:cnt]
		}
		accumulateBlock(out, rowLo, factors, others[:nOther], &b)
	}
}

// MTTKRPColumns is MTTKRPAccumulate over nonzeros that are already stored as
// columns (a dist worker's resident shard): rows[i], vals[i] and cols[c][i]
// are nonzero i's output row, value and index along the c-th mode other than
// `mode`, ascending. Same blocks, same body, same bits; nothing is copied.
func MTTKRPColumns(out *la.Dense, rowLo int, rows []uint32, vals []float64, cols [][]uint32, mode int, factors []*la.Dense) {
	var (
		others [tensor.MaxOrder - 1]int
		b      block
	)
	nOther, blockLen := plan(out.Cols, mode, factors, &others)
	for lo := 0; lo < len(rows); lo += blockLen {
		hi := min(lo+blockLen, len(rows))
		b.rows, b.vals = rows[lo:hi], vals[lo:hi]
		for c := range others[:nOther] {
			b.cols[c] = cols[c][lo:hi]
		}
		accumulateBlock(out, rowLo, factors, others[:nOther], &b)
	}
}

// accumulateBlock is the one per-block MTTKRP body: warm, then compute.
func accumulateBlock(out *la.Dense, rowLo int, factors []*la.Dense, others []int, blk *block) {
	cnt := len(blk.rows)
	// Warm: one load per cache line of every factor row the block will
	// read, with nothing between the loads to wait for. KeepAlive is what
	// stops the compiler from deleting them.
	var warm uint64
	for c, m := range others {
		f := factors[m]
		for _, i := range blk.cols[c] {
			row := f.Row(int(i))
			for x := 0; x < len(row); x += 8 {
				warm ^= math.Float64bits(row[x])
			}
		}
	}
	runtime.KeepAlive(warm)
	// Compute, one run of equal output rows at a time: the row slice is
	// derived once per run and accumulated in place.
	rows, vals := blk.rows, blk.vals[:cnt]
	for j := 0; j < cnt; {
		r := rows[j]
		acc := out.Row(int(r) - rowLo)
		switch len(others) {
		case 2:
			fa, fb := factors[others[0]], factors[others[1]]
			ca, cb := blk.cols[0][:cnt], blk.cols[1][:cnt]
			for ; j < cnt && rows[j] == r; j++ {
				v := vals[j]
				a := fa.Row(int(ca[j]))[:len(acc)]
				b := fb.Row(int(cb[j]))[:len(acc)]
				for c := range acc {
					acc[c] += float64(float64(v*a[c]) * b[c])
				}
			}
		case 3:
			fa, fb, fd := factors[others[0]], factors[others[1]], factors[others[2]]
			ca, cb, cd := blk.cols[0][:cnt], blk.cols[1][:cnt], blk.cols[2][:cnt]
			for ; j < cnt && rows[j] == r; j++ {
				v := vals[j]
				a := fa.Row(int(ca[j]))[:len(acc)]
				b := fb.Row(int(cb[j]))[:len(acc)]
				d := fd.Row(int(cd[j]))[:len(acc)]
				for c := range acc {
					acc[c] += float64(float64(float64(v*a[c])*b[c]) * d[c])
				}
			}
		default:
			var frows [tensor.MaxOrder - 1][]float64
			for ; j < cnt && rows[j] == r; j++ {
				v := vals[j]
				for c, m := range others {
					frows[c] = factors[m].Row(int(blk.cols[c][j]))[:len(acc)]
				}
				for c := range acc {
					x := v
					for _, f := range frows[:len(others)] {
						x = float64(x * f[c])
					}
					acc[c] += x
				}
			}
		}
	}
}
