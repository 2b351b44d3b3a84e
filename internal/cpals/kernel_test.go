package cpals

import (
	"fmt"
	"testing"

	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// referenceInto is the loop of the MTTKRP oracle accumulating into a matrix
// that is not zero on entry (MTTKRP itself always starts from zeros).
func referenceInto(out *la.Dense, t *tensor.COO, mode int, factors []*la.Dense) {
	tmp := make([]float64, out.Cols)
	for i := range t.Entries {
		e := &t.Entries[i]
		for r := range tmp {
			tmp[r] = e.Val
		}
		for n := range factors {
			if n != mode {
				la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
			}
		}
		la.VecAdd(out.Row(int(e.Idx[mode])), tmp)
	}
}

// kernelTestTensor has, along every mode, rows with no nonzeros (index 1 and
// the last index are never drawn), repeated coordinates, and far more
// nonzeros per row than one gather block, so row runs straddle block
// boundaries; row 3 of mode 0 alone holds 2.5 blocks' worth.
func kernelTestTensor(order int, sorted bool) *tensor.COO {
	dims := []int{37, 11, 9, 7, 5}[:order]
	x := tensor.New(dims...)
	src := rng.New(uint64(order))
	draw := func(heavy bool) tensor.Entry {
		var e tensor.Entry
		for m, d := range dims {
			i := src.Intn(d - 1)
			if i == 1 {
				i = 0
			}
			e.Idx[m] = uint32(i)
		}
		if heavy {
			e.Idx[0] = 3
		}
		e.Val = src.NormFloat64()
		return e
	}
	for i := 0; i < 1500; i++ {
		x.Entries = append(x.Entries, draw(false))
	}
	for i := 0; i < 5*gatherBlock/2; i++ {
		x.Entries = append(x.Entries, draw(true))
	}
	for i := 0; i < 200; i++ { // exact duplicates of earlier coordinates
		e := x.Entries[src.Intn(len(x.Entries))]
		e.Val = src.NormFloat64()
		x.Entries = append(x.Entries, e)
	}
	if sorted {
		x.Sort()
	} else {
		shuffleEntries(x, src)
	}
	return x
}

// rowsView is rows [lo, hi) of a copy of m.
func rowsView(m *la.Dense, lo, hi int) *la.Dense {
	return &la.Dense{Rows: hi - lo, Cols: m.Cols, Data: append([]float64(nil), m.Data[lo*m.Cols:hi*m.Cols]...)}
}

// shuffleEntries puts the nonzeros in a random storage order.
func shuffleEntries(x *tensor.COO, src *rng.SplitMix64) {
	for i := len(x.Entries) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		x.Entries[i], x.Entries[j] = x.Entries[j], x.Entries[i]
	}
	x.InvalidateIndex()
}

// entryColumns is a sequence of nonzeros stored by column, the layout
// MTTKRPColumns scans (a dist worker's resident shard).
type entryColumns struct {
	rows []uint32
	vals []float64
	cols [][]uint32
}

// columnsOf transposes entries into columns for an output along `mode`.
func columnsOf(entries []tensor.Entry, mode, order int) entryColumns {
	c := entryColumns{cols: make([][]uint32, order-1)}
	for _, e := range entries {
		c.rows = append(c.rows, e.Idx[mode])
		c.vals = append(c.vals, e.Val)
		k := 0
		for m := 0; m < order; m++ {
			if m != mode {
				c.cols[k] = append(c.cols[k], e.Idx[m])
				k++
			}
		}
	}
	return c
}

// slice is nonzeros [lo, hi) of c.
func (c entryColumns) slice(lo, hi int) entryColumns {
	s := entryColumns{rows: c.rows[lo:hi], vals: c.vals[lo:hi], cols: make([][]uint32, len(c.cols))}
	for k := range c.cols {
		s.cols[k] = c.cols[k][lo:hi]
	}
	return s
}

// The fused kernel must reproduce the entry-order oracle bit for bit, for
// every schedule the repository runs it under and through all three feeders
// of its block body: worker ranges over the mode index and over a solve's
// mode columns, a shard at a row offset scanned linearly as entries and as
// columns, one row at a time, and a row run cut between two calls — inside
// a block and exactly at a block boundary — through the Perm gather and
// through the mode columns.
func TestKernelBitwiseEqualsOracle(t *testing.T) {
	for order := 2; order <= 5; order++ {
		for _, sorted := range []bool{true, false} {
			x := kernelTestTensor(order, sorted)
			// Sorted storage leaves mode 0 in place; shuffled copies every
			// mode.
			held := &COOSource{}
			t.Cleanup(held.keepColumns(x, 2))
			for m := range order {
				if copied := held.res.modes[m].vals != nil; copied != (m > 0 || !sorted) {
					t.Fatalf("order %d sorted %v: mode %d copied %v", order, sorted, m, copied)
				}
			}
			for _, rank := range []int{1, 5, 16, 64} {
				factors := make([]*la.Dense, order)
				for n := range factors {
					factors[n] = InitFactor(uint64(rank), n, x.Dims[n], rank)
				}
				for mode := 0; mode < order; mode++ {
					label := fmt.Sprintf("order %d sorted %v rank %d mode %d", order, sorted, rank, mode)
					want := MTTKRP(x, mode, factors)
					zero := la.NewDense(x.Dims[mode], rank)
					referenceInto(zero, x, mode, factors)
					if la.MaxAbsDiff(zero, want) != 0 {
						t.Fatalf("%s: the test's reference loop is not the oracle's", label)
					}
					start := InitFactor(99, mode, x.Dims[mode], rank) // a non-zero out on entry
					wantFrom := start.Clone()
					referenceInto(wantFrom, x, mode, factors)

					for _, workers := range []int{1, 2, 3, 8} {
						if d := la.MaxAbsDiff(MTTKRPWorkers(x, mode, factors, workers, nil, nil), want); d != 0 {
							t.Fatalf("%s workers %d: differs from the oracle by %g", label, workers, d)
						}
						if d := la.MaxAbsDiff(MTTKRPWorkers(x, mode, factors, workers, start.Clone(), nil), wantFrom); d != 0 {
							t.Fatalf("%s workers %d: non-zero out differs by %g", label, workers, d)
						}
						got := la.NewDense(x.Dims[mode], rank)
						held.res.mttkrp(mode, factors, workers, got, nil)
						if d := la.MaxAbsDiff(got, want); d != 0 {
							t.Fatalf("%s workers %d: the mode columns differ by %g", label, workers, d)
						}
						got = start.Clone()
						held.res.mttkrp(mode, factors, workers, got, nil)
						if d := la.MaxAbsDiff(got, wantFrom); d != 0 {
							t.Fatalf("%s workers %d: the mode columns into a non-zero out differ by %g", label, workers, d)
						}
					}

					mi := x.ModeIndex(mode)
					// Shards: the entries of a row range copied out in Perm
					// order, scanned with perm == nil into rows [RowLo, RowHi).
					for _, r := range mi.Ranges(3) {
						shard := make([]tensor.Entry, 0, r.Hi-r.Lo)
						for _, p := range mi.Perm[r.Lo:r.Hi] {
							shard = append(shard, x.Entries[p])
						}
						got := la.NewDense(r.RowHi-r.RowLo, rank)
						mttkrpAccumulate(got, r.RowLo, shard, nil, mode, factors, nil)
						c := columnsOf(shard, mode, order)
						fromCols := rowsView(start, r.RowLo, r.RowHi) // non-zero on entry
						MTTKRPColumns(fromCols, r.RowLo, c.rows, c.vals, c.cols, mode, factors)
						for i := r.RowLo; i < r.RowHi; i++ {
							if la.VecMaxAbsDiff(got.Row(i-r.RowLo), want.Row(i)) != 0 {
								t.Fatalf("%s: shard rows [%d,%d) differ at row %d", label, r.RowLo, r.RowHi, i)
							}
							if la.VecMaxAbsDiff(fromCols.Row(i-r.RowLo), wantFrom.Row(i)) != 0 {
								t.Fatalf("%s: column shard rows [%d,%d) differ at row %d", label, r.RowLo, r.RowHi, i)
							}
						}
					}
					// A cut inside row 3's run (it holds more than 100 nonzeros
					// along every mode), the two parts run one after the other
					// — what a range boundary inside a row would amount to.
					// The second and third cuts fall where one call's blocks end
					// (row 3's run then resumes at a block start) and one short
					// of it (the resumed run is the block's last nonzero).
					all := make([]tensor.Entry, len(mi.Perm))
					for i, p := range mi.Perm {
						all[i] = x.Entries[p]
					}
					cols := columnsOf(all, mode, order)
					_, blockLen := plan(rank, mode, factors, new([tensor.MaxOrder - 1]int))
					atBlock := (int(mi.RowPtr[3])/blockLen + 1) * blockLen
					for _, cut := range []int{int(mi.RowPtr[3]) + 1, atBlock, atBlock - 1, int(mi.RowPtr[3]) + 100} {
						if cut <= int(mi.RowPtr[3]) || cut >= int(mi.RowPtr[4]) {
							t.Fatalf("%s: cut %d is not inside row 3", label, cut)
						}
						got := la.NewDense(x.Dims[mode], rank)
						mttkrpAccumulate(got, 0, x.Entries, mi.Perm[:cut], mode, factors, nil)
						mttkrpAccumulate(got, 0, x.Entries, mi.Perm[cut:], mode, factors, nil)
						if d := la.MaxAbsDiff(got, want); d != 0 {
							t.Fatalf("%s: cut at %d differs by %g", label, cut, d)
						}
						got.Zero()
						for _, c := range []entryColumns{cols.slice(0, cut), cols.slice(cut, len(all))} {
							MTTKRPColumns(got, 0, c.rows, c.vals, c.cols, mode, factors)
						}
						if d := la.MaxAbsDiff(got, want); d != 0 {
							t.Fatalf("%s: columns cut at %d differ by %g", label, cut, d)
						}
						// The mode columns, the second part resuming inside
						// row 3.
						if mc := &held.res.modes[mode]; mc.vals != nil {
							got.Zero()
							mc.accumulate(got, tensor.NNZRange{RowLo: 0, RowHi: 4, Lo: 0, Hi: cut}, mode, factors, nil)
							mc.accumulate(got, tensor.NNZRange{RowLo: 3, RowHi: x.Dims[mode], Lo: cut, Hi: len(all)}, mode, factors, nil)
							if d := la.MaxAbsDiff(got, want); d != 0 {
								t.Fatalf("%s: mode columns cut at %d differ by %g", label, cut, d)
							}
						}
					}
					// One row per call, as the stream updater runs it.
					row := la.NewDense(1, rank)
					for i := 0; i < x.Dims[mode]; i++ {
						row.Zero()
						mttkrpAccumulate(row, i, x.Entries, mi.Perm[mi.RowPtr[i]:mi.RowPtr[i+1]], mode, factors, nil)
						if la.VecMaxAbsDiff(row.Data, want.Row(i)) != 0 {
							t.Fatalf("%s: row %d alone differs", label, i)
						}
					}
				}
			}
		}
	}
}
