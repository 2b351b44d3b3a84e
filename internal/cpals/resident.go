package cpals

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Mode columns (DESIGN §9). A Serial solve streams every mode's MTTKRP out
// of a narrow copy of the nonzeros in that mode's order — a value column and
// one index column per other mode, 8 + 4·(order−1) bytes a nonzero — instead
// of gathering 40-byte entries through ModeIndex.Perm. The copies live only
// as long as the solves that read them and outside the Go heap, so the
// collector neither scans them nor keeps them as garbage afterwards:
// SolveWith maps them before its first iteration and unmaps them on every
// way out. Solves of one tensor that overlap (DecomposeBest's restarts)
// share one set.

// liveResident is the bytes of mode columns mapped now, over every solve in
// the process.
var liveResident atomic.Int64

// holds is the mode columns of every tensor a solve holds them for.
var holds = struct {
	sync.Mutex
	byTensor map[*tensor.COO]*resident
}{byTensor: map[*tensor.COO]*resident{}}

// modeColumns is one mode's nonzeros in the stable order of its index: row
// i's nonzeros are positions [rowPtr[i], rowPtr[i+1]), in storage order.
type modeColumns struct {
	rowPtr []int32
	// vals and cols are the value and the index along each other mode
	// (ascending) of every position. Both are nil for a mode whose index
	// never decreases in storage order: its order is the storage order, so
	// the entries are scanned in place.
	vals []float64
	cols [tensor.MaxOrder - 1][]uint32
	mem  []byte // the mapping vals and cols view
}

// resident is the mode columns of one tensor.
type resident struct {
	x     *tensor.COO
	modes []modeColumns
	refs  int           // the sources holding it, under holds' lock
	built chan struct{} // closed once modes are final
	ok    bool          // every mode was built; read once built is closed
}

// keepColumns gives the source the mode columns of t for its full-mode
// MTTKRPs — the set another solve of t holds, or one it builds on up to
// workers goroutines — and returns what gives them up; the last to give a
// set up unmaps it. Where a mapping fails the source keeps to the mode
// index.
func (s *COOSource) keepColumns(t *tensor.COO, workers int) (release func()) {
	holds.Lock()
	r := holds.byTensor[t]
	fresh := r == nil
	if fresh {
		r = &resident{x: t, built: make(chan struct{})}
		holds.byTensor[t] = r
	}
	r.refs++
	holds.Unlock()
	if fresh {
		r.build(workers)
	} else {
		<-r.built
	}
	if r.ok {
		s.res = r
	}
	return func() {
		s.res = nil
		r.drop()
	}
}

// build builds every mode's columns, one mode per task, and closes built.
// On a failed mapping it unmaps what it mapped; on a panic it also gives up
// its caller's hold.
func (r *resident) build(workers int) {
	defer close(r.built)
	defer func() {
		if v := recover(); v != nil {
			r.drop()
			panic(v)
		}
	}()
	r.modes = make([]modeColumns, r.x.Order())
	var failed atomic.Bool
	par.Run(workers, len(r.modes), func(m int) {
		if r.modes[m].build(r.x, m) != nil {
			failed.Store(true)
		}
	})
	if failed.Load() {
		r.unmap()
	} else {
		r.ok = true
	}
}

// drop gives up one hold, unmapping the columns with the last.
func (r *resident) drop() {
	holds.Lock()
	r.refs--
	last := r.refs == 0
	if last {
		delete(holds.byTensor, r.x)
	}
	holds.Unlock()
	if last {
		r.unmap()
	}
}

// unmap unmaps every mode's columns.
func (r *resident) unmap() {
	for m := range r.modes {
		c := &r.modes[m]
		if c.mem != nil {
			// Munmap fails only on a range that is not a mapping.
			_ = unmapBytes(c.mem)
			liveResident.Add(-int64(len(c.mem)))
		}
		*c = modeColumns{}
	}
}

// build counts x's nonzeros per row of mode into rowPtr and, unless the
// mode is in storage order, maps the columns and scatters the nonzeros into
// them in storage order, which makes the order stable.
func (c *modeColumns) build(x *tensor.COO, mode int) error {
	es, rows := x.Entries, x.Dims[mode]
	ptr := make([]int32, rows+1)
	inOrder := true
	var prev uint32
	for i := range es {
		r := es[i].Idx[mode]
		ptr[r+1]++
		inOrder = inOrder && r >= prev
		prev = r
	}
	for r := range rows {
		ptr[r+1] += ptr[r]
	}
	c.rowPtr = ptr
	if inOrder {
		return nil
	}
	nnz, nOther := len(es), x.Order()-1
	mem, err := mapBytes(nnz * (8 + 4*nOther))
	if err != nil {
		return err
	}
	c.mem = mem
	liveResident.Add(int64(len(mem)))
	c.vals = unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), nnz)
	var others [tensor.MaxOrder - 1]int
	for k := range nOther {
		c.cols[k] = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[8*nnz+4*k*nnz])), nnz)
		others[k] = k
		if k >= mode {
			others[k] = k + 1
		}
	}
	// ptr[r] is row r's cursor: once every nonzero is placed it holds row
	// r's end, which is row r+1's start.
	for i := range es {
		e := &es[i]
		r := e.Idx[mode]
		p := ptr[r]
		ptr[r]++
		c.vals[p] = e.Val
		for k, m := range others[:nOther] {
			c.cols[k][p] = e.Idx[m]
		}
	}
	copy(ptr[1:], ptr[:rows])
	ptr[0] = 0
	return nil
}

// mttkrp adds the mode MTTKRP of r.x to out on up to workers goroutines,
// one row-aligned range of the mode's order each: the mode index's ranges
// over the same nonzeros in the same order, so every output value sees the
// same operations as under MTTKRPWorkers.
func (r *resident) mttkrp(mode int, factors []*la.Dense, workers int, out *la.Dense, skip *zeroMarks) {
	workers = par.Workers(workers)
	c := &r.modes[mode]
	ranges := tensor.RowRanges(c.rowPtr, workers)
	par.Run(workers, len(ranges), func(k int) {
		rg := ranges[k]
		if c.vals == nil {
			mttkrpAccumulate(out, 0, r.x.Entries[rg.Lo:rg.Hi], nil, mode, factors, skip)
		} else {
			c.accumulate(out, rg, mode, factors, skip)
		}
	})
}

// accumulate is mttkrpAccumulate over positions [rg.Lo, rg.Hi) of the
// columns, which start at row rg.RowLo: the blocks are cut where the entry
// feeder cuts them, and their rows come from rowPtr. Without marks the
// values and index columns are sliced in place; with marks the nonzeros
// whose terms survive are gathered.
func (c *modeColumns) accumulate(out *la.Dense, rg tensor.NNZRange, mode int, factors []*la.Dense, skip *zeroMarks) {
	var (
		others [tensor.MaxOrder - 1]int
		g      gatherBuf
		b      block
	)
	nOther, blockLen := plan(out.Cols, mode, factors, &others)
	r := rg.RowLo // the row of position p: rowPtr[r] <= p < rowPtr[r+1]
	for p := rg.Lo; p < rg.Hi; {
		if skip == nil {
			cnt := min(blockLen, rg.Hi-p)
			for j := 0; j < cnt; {
				for int(c.rowPtr[r+1]) <= p+j {
					r++
				}
				for end := min(int(c.rowPtr[r+1])-p, cnt); j < end; j++ {
					g.rows[j] = uint32(r)
				}
			}
			b.rows, b.vals = g.rows[:cnt], c.vals[p:p+cnt]
			for k := range nOther {
				b.cols[k] = c.cols[k][p : p+cnt]
			}
			p += cnt
		} else {
			cnt := 0
			for ; p < rg.Hi && cnt < blockLen; p++ {
				g.vals[cnt] = c.vals[p]
				for k := range nOther {
					g.cols[k][cnt] = c.cols[k][p]
				}
				if !skip.zeroTerm(&g, cnt, nOther) {
					for int(c.rowPtr[r+1]) <= p {
						r++
					}
					g.rows[cnt] = uint32(r)
					cnt++
				}
			}
			b = g.block(cnt, nOther)
		}
		accumulateBlock(out, 0, factors, others[:nOther], &b)
	}
}
