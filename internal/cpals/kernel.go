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

// skipShare gates the skipping gather (COOSource, DESIGN §9): a call drops
// the nonzeros with exactly-zero terms only when one other mode's zero rows
// hold at least 1/skipShare of them. Where little is dropped its
// per-nonzero test is a loss: ungated, als3-zipf's iteration went from
// 299–330 ms to 428–454 ms and serve-stream's from 168–181 ms to 205–231 ms
// (2-vCPU Xeon, alternating runs), while on als4-tall's collapsed model over
// 99 % of the terms drop.
const skipShare = 4

// warmBytes caps the factor and output rows one block reads, so that what the
// warm pass loads is still cached when the compute pass gets to it: past
// about 1 MB per block the rank-64 order-4 kernel runs 2x slower, not faster.
// Only ranks above 21 (order 3) or 16 (order 4) get a shorter block from it.
const warmBytes = 128 << 10

// block is one block of nonzeros as columns: output row, value, and the
// index along each other mode (ascending mode order). The kernel has three
// feeders that fill one: mttkrpAccumulate gathers entries into a gatherBuf,
// modeColumns.accumulate slices a solve's resident mode columns, and
// MTTKRPColumns slices columns that are already resident in full.
type block struct {
	rows []uint32
	vals []float64
	cols [tensor.MaxOrder - 1][]uint32
}

// gatherBuf is the stack buffer a feeder gathers one block into.
type gatherBuf struct {
	rows [gatherBlock]uint32
	vals [gatherBlock]float64
	cols [tensor.MaxOrder - 1][gatherBlock]uint32
}

// block is the first cnt nonzeros of g. (It returns the block rather than
// filling one through a pointer, which would move g to the heap.)
func (g *gatherBuf) block(cnt, nOther int) (b block) {
	b.rows, b.vals = g.rows[:cnt], g.vals[:cnt]
	for c := range g.cols[:nOther] {
		b.cols[c] = g.cols[c][:cnt]
	}
	return b
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

// zeroMarks holds, for each mode other than the output mode (ascending), a
// bitset of the factor rows that are all ±0: bit i of marks[c] is row i of
// the c-th other mode's factor.
type zeroMarks [tensor.MaxOrder - 1][]uint64

// zeroTerm reports whether the term of nonzero j of g — its value and its
// indices along the nOther other modes gathered, its row not yet — is
// exactly ±0 and may be dropped: its value is finite and one of its
// other-mode rows is marked. The marks must come from factors whose every
// entry is finite and at most 1 in magnitude, so that no partial product
// reaches Inf before it meets the zero row.
func (z *zeroMarks) zeroTerm(g *gatherBuf, j, nOther int) bool {
	if !(math.Abs(g.vals[j]) <= math.MaxFloat64) {
		return false // Inf or NaN times zero is NaN
	}
	for c := range nOther {
		if i := g.cols[c][j]; z[c][i>>6]>>(i&63)&1 != 0 {
			return true
		}
	}
	return false
}

// mttkrpAccumulate is the per-nonzero COO MTTKRP over array-of-entries
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
//
// Given zero-row marks it gathers only the nonzeros whose terms are not
// exactly zero. Dropping a ±0 term changes no output bit when out starts at
// +0 (a sum that starts at +0 never becomes -0), so with marks out must be
// zero on entry.
func mttkrpAccumulate(out *la.Dense, rowLo int, entries []tensor.Entry, perm []int32, mode int, factors []*la.Dense, skip *zeroMarks) {
	n := len(entries)
	if perm != nil {
		n = len(perm)
	}
	var (
		others [tensor.MaxOrder - 1]int
		g      gatherBuf
	)
	nOther, blockLen := plan(out.Cols, mode, factors, &others)
	for lo := 0; lo < n; {
		cnt := 0
		if skip == nil {
			cnt = min(blockLen, n-lo)
			// Gather: loads only, so the cache misses of a block overlap
			// instead of each waiting behind the previous nonzero's
			// arithmetic.
			for j := range g.rows[:cnt] {
				p := lo + j
				if perm != nil {
					p = int(perm[p])
				}
				e := &entries[p]
				g.rows[j], g.vals[j] = e.Idx[mode], e.Val
				for c, m := range others[:nOther] {
					g.cols[c][j] = e.Idx[m]
				}
			}
			lo += cnt
		} else {
			// The same gather, keeping the nonzeros that survive the
			// marks: each is gathered into the next free slot, which the
			// next one overwrites when its term is zero.
			for ; lo < n && cnt < blockLen; lo++ {
				p := lo
				if perm != nil {
					p = int(perm[p])
				}
				e := &entries[p]
				g.vals[cnt] = e.Val
				for c, m := range others[:nOther] {
					g.cols[c][cnt] = e.Idx[m]
				}
				if !skip.zeroTerm(&g, cnt, nOther) {
					g.rows[cnt] = e.Idx[mode]
					cnt++
				}
			}
		}
		b := g.block(cnt, nOther)
		accumulateBlock(out, rowLo, factors, others[:nOther], &b)
	}
}

// MTTKRPColumns is mttkrpAccumulate over nonzeros that are already stored as
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
