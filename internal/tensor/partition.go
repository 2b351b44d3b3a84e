package tensor

import (
	"fmt"

	"cstf/internal/par"
)

// ModeIndex is the one-time sort/segment index that lets MTTKRP along one
// mode fan out across worker goroutines with zero write conflicts: Perm
// lists the entry positions STABLY sorted by that mode's index, and RowPtr
// is the CSR-style segment table over the sorted order. Worker w then owns
// a contiguous range of output rows — and, via Perm, exactly the entries
// that write to them — so no two workers ever touch the same output row.
//
// Stability is load-bearing for determinism: within one output row the
// entries appear in their original storage order, so accumulating them
// row-by-row performs the identical per-row floating-point sequence as the
// classic entry-order COO loop, bitwise, for every worker count.
type ModeIndex struct {
	Mode   int
	Perm   []int32 // entry positions sorted stably by Idx[Mode]
	RowPtr []int32 // len Dims[Mode]+1; row r owns Perm[RowPtr[r]:RowPtr[r+1]]
}

// buildModeIndex counting-sorts the entry positions by Idx[mode]. Counting
// sort is stable and O(nnz + dims[mode]).
func buildModeIndex(t *COO, mode int) *ModeIndex {
	rows := t.Dims[mode]
	idx := &ModeIndex{
		Mode:   mode,
		Perm:   make([]int32, len(t.Entries)),
		RowPtr: make([]int32, rows+1),
	}
	for i := range t.Entries {
		idx.RowPtr[t.Entries[i].Idx[mode]+1]++
	}
	for r := 0; r < rows; r++ {
		idx.RowPtr[r+1] += idx.RowPtr[r]
	}
	next := make([]int32, rows)
	copy(next, idx.RowPtr[:rows])
	for i := range t.Entries {
		r := t.Entries[i].Idx[mode]
		idx.Perm[next[r]] = int32(i)
		next[r]++
	}
	return idx
}

// NNZRange is one worker's share of a partitioned mode: the output rows
// [RowLo, RowHi) and the corresponding Perm positions [Lo, Hi).
type NNZRange struct {
	RowLo, RowHi int
	Lo, Hi       int
}

// Ranges splits the mode into up to `parts` contiguous row ranges balanced
// by nonzero count. Boundaries always fall between rows, so the ranges'
// output regions are disjoint; empty ranges are dropped. The CUT POINTS
// depend on `parts`, but per-row work does not, so kernels that own whole
// rows stay deterministic across any partitioning.
func (x *ModeIndex) Ranges(parts int) []NNZRange { return RowRanges(x.RowPtr, parts) }

// RowRanges is Ranges over any CSR-style segment table: row r owns
// positions [rowPtr[r], rowPtr[r+1]) of a sequence in row order.
func RowRanges(rowPtr []int32, parts int) []NNZRange {
	rows := len(rowPtr) - 1
	nnz := int(rowPtr[rows])
	if parts < 1 {
		parts = 1
	}
	out := make([]NNZRange, 0, parts)
	row := 0
	for p := 0; p < parts && row < rows; p++ {
		// Target an even split of the REMAINING nonzeros over the
		// remaining parts, then advance to the next row boundary at or
		// past it.
		done := int(rowPtr[row])
		target := done + (nnz-done+parts-p-1)/(parts-p)
		hi := row
		for hi < rows && int(rowPtr[hi+1]) <= target {
			hi++
		}
		if hi == row {
			hi = row + 1 // a single row exceeding the target still needs an owner
		}
		r := NNZRange{RowLo: row, RowHi: hi, Lo: int(rowPtr[row]), Hi: int(rowPtr[hi])}
		if r.Hi > r.Lo {
			out = append(out, r)
		}
		row = hi
	}
	if row < rows { // leftover all-empty tail rows: nothing owns zero nonzeros
		if last := int(rowPtr[rows]); len(out) > 0 && out[len(out)-1].Hi < last {
			panic("tensor: mode ranges dropped nonzeros")
		}
	}
	return out
}

// ModeIndex returns the (lazily built, cached) sort/segment index for one
// mode. The cache is safe for concurrent readers — e.g. restart goroutines
// sharing a tensor — and is invalidated by Append, Sort, and DedupSum.
// Callers that mutate the exported Entries slice directly must call
// InvalidateIndex themselves. The index is built outside the lock, so
// different modes build concurrently (see ModeIndexes).
func (t *COO) ModeIndex(mode int) *ModeIndex {
	if mode < 0 || mode >= t.Order() {
		panic(fmt.Sprintf("tensor: mode %d out of range for order %d", mode, t.Order()))
	}
	t.mu.Lock()
	mi := t.cachedIndex(mode)
	t.mu.Unlock()
	if mi != nil {
		return mi
	}
	mi = buildModeIndex(t, mode)
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.cachedIndex(mode); old != nil {
		return old // a concurrent build of this mode finished first; both are the same index
	}
	if len(t.modeIdx) != t.Order() {
		t.modeIdx = make([]*ModeIndex, t.Order())
	}
	t.modeIdx[mode] = mi
	return mi
}

// cachedIndex returns the cached index of mode, or nil. t.mu must be held.
func (t *COO) cachedIndex(mode int) *ModeIndex {
	if mode < len(t.modeIdx) {
		if mi := t.modeIdx[mode]; mi != nil && len(mi.Perm) == len(t.Entries) {
			return mi
		}
	}
	return nil
}

// ModeIndexes returns every mode's index, building the missing ones
// concurrently, one mode per task on up to `workers` goroutines. Solvers
// call it once before their first iteration so that no mode's first MTTKRP
// waits for its index.
func (t *COO) ModeIndexes(workers int) []*ModeIndex {
	out := make([]*ModeIndex, t.Order())
	par.Run(workers, len(out), func(m int) { out[m] = t.ModeIndex(m) })
	return out
}

// ModeIndexesCached reports whether every mode's index is cached, so that
// ModeIndexes would build none.
func (t *COO) ModeIndexesCached() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for m := range t.Order() {
		if t.cachedIndex(m) == nil {
			return false
		}
	}
	return true
}

// InvalidateIndex drops all cached mode indexes. Mutating methods call it
// automatically; callers editing Entries in place must call it by hand.
func (t *COO) InvalidateIndex() {
	t.mu.Lock()
	t.modeIdx = nil
	t.mu.Unlock()
}
