package cpals

import (
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Shared-memory parallel MTTKRP. The tensor's cached per-mode index
// (tensor.ModeIndex) partitions the nonzeros into contiguous OUTPUT-ROW
// ranges, so each worker owns a disjoint slice of the result and no
// synchronization is needed on the accumulation path. Because the index is
// a stable sort, the entries of one output row are visited in their
// original storage order no matter how rows are grouped into workers: the
// result is bitwise identical for every worker count, and bitwise identical
// to the entry-order reference MTTKRP.

// Workspace holds the reusable scratch of a CP-ALS run: one slab that every
// mode's MTTKRP output is a view of, sized to the largest mode, instead of
// one output matrix per mode. Reusing it is safe because a mode update reads
// its own M only before the next mode's Out, and the one M read after its
// update — the last mode's, by the fit — is read before the next
// iteration's first Out. A zero Workspace is ready to use and grows on
// demand; it is NOT safe for concurrent runs — give each concurrent Solve
// its own.
type Workspace struct {
	slab []float64
}

// Out returns a zeroed rows×rank view of the slab. The view is live and
// shared: the next Out, for any mode, zeroes and overwrites it. The mode
// argument is unused; the zeroing fans out over the same worker pool as the
// kernels.
func (w *Workspace) Out(_, rows, rank, workers int) *la.Dense {
	n := rows * rank
	if cap(w.slab) < n {
		w.slab = make([]float64, n)
		return la.NewDenseFrom(rows, rank, w.slab)
	}
	d := w.slab[:n]
	la.RowBlocksApply(workers, rows, func(lo, hi int) {
		clear(d[lo*rank : hi*rank])
	})
	return la.NewDenseFrom(rows, rank, d)
}

// MTTKRPWorkers computes the mode-n MTTKRP on up to `workers` goroutines,
// adding into out (allocated when nil; must be t.Dims[mode]×rank, and zeroed
// for a plain MTTKRP). Each goroutine runs mttkrpAccumulate over one
// row-aligned range of the mode index. The result is bitwise identical to
// MTTKRP for every worker count. The kernel keeps its scratch on the stack,
// so the last parameter is unused; it stays for the callers that pass one.
func MTTKRPWorkers(t *tensor.COO, mode int, factors []*la.Dense, workers int, out *la.Dense, _ *Workspace) *la.Dense {
	if len(factors) != t.Order() {
		panic("cpals: factor count != tensor order")
	}
	if out == nil {
		out = la.NewDense(t.Dims[mode], factors[0].Cols)
	}
	mttkrpWorkers(t, mode, factors, workers, out, nil)
	return out
}

// mttkrpWorkers is MTTKRPWorkers into a given out, with the zero-row marks
// of mttkrpAccumulate.
func mttkrpWorkers(t *tensor.COO, mode int, factors []*la.Dense, workers int, out *la.Dense, skip *zeroMarks) {
	workers = par.Workers(workers)
	mi := t.ModeIndex(mode)
	ranges := mi.Ranges(workers)
	par.Run(workers, len(ranges), func(k int) {
		r := ranges[k]
		mttkrpAccumulate(out, 0, t.Entries, mi.Perm[r.Lo:r.Hi], mode, factors, skip)
	})
}

// MTTKRPCSFWorkers is the parallel SPLATT-style CSF kernel: root fibers are
// split into contiguous chunks (balanced by child-fiber count) and each
// chunk is walked independently. Root indices are unique within a CSF tree,
// so chunks write disjoint output rows; per-root arithmetic is unchanged,
// so the result is bitwise identical to MTTKRPCSF for every worker count.
func MTTKRPCSFWorkers(csf *tensor.CSF, factors []*la.Dense, workers int) *la.Dense {
	out := la.NewDense(csf.Dims[csf.ModeOrder[0]], factors[0].Cols)
	mttkrpCSFInto(csf, factors, workers, out)
	return out
}

// mttkrpCSFInto is MTTKRPCSFWorkers adding into out (root-mode rows x rank,
// zeroed for a plain MTTKRP).
func mttkrpCSFInto(csf *tensor.CSF, factors []*la.Dense, workers int, out *la.Dense) {
	order := len(csf.ModeOrder)
	if len(factors) != order {
		panic("cpals: factor count != tensor order")
	}
	rank := factors[0].Cols
	nroots := len(csf.Idx[0])
	if csf.NNZ() == 0 || nroots == 0 {
		return
	}
	workers = par.Workers(workers)
	if workers > nroots {
		workers = nroots
	}

	// Chunk roots by cumulative level-1 fiber count so skewed tensors
	// (a few huge slices) still balance. Like the serial CSF kernel this
	// assumes order >= 2.
	chunks := make([][2]int, 0, workers)
	total := int(csf.Ptr[0][nroots])
	lo := 0
	for p := 0; p < workers && lo < nroots; p++ {
		done := int(csf.Ptr[0][lo])
		target := done + (total-done+workers-p-1)/(workers-p)
		hi := lo
		for hi < nroots && int(csf.Ptr[0][hi+1]) <= target {
			hi++
		}
		if hi == lo {
			hi = lo + 1
		}
		chunks = append(chunks, [2]int{lo, hi})
		lo = hi
	}

	par.Run(workers, len(chunks), func(k int) {
		bufs := make([][]float64, order)
		for l := 1; l < order; l++ {
			bufs[l] = make([]float64, rank)
		}
		walk := csfWalker(csf, factors, bufs)
		for root := int32(chunks[k][0]); root < int32(chunks[k][1]); root++ {
			dst := out.Row(int(csf.Idx[0][root]))
			for ch := csf.Ptr[0][root]; ch < csf.Ptr[0][root+1]; ch++ {
				walk(1, ch, dst)
			}
		}
	})
}

// FitFromWorkers computes the CP-ALS fit 1 - ||X - X_hat|| / ||X|| using the
// standard identity
//
//	||X - X_hat||^2 = ||X||^2 + ||X_hat||^2 - 2 <X, X_hat>
//	<X, X_hat>      = sum_{i,r} M(i,r) * A(i,r) * lambda_r
//
// where M is the MTTKRP result of the last updated mode and A that mode's
// normalized factor. This avoids a pass over the tensor (the SPLATT trick);
// all three quantities already exist at the end of an ALS iteration. The
// inner product is a deterministic blocked reduction on the worker pool.
func FitFromWorkers(normX float64, lastM, lastFactor *la.Dense, lambda []float64, grams []*la.Dense, workers int) float64 {
	inner := par.SumBlocks(workers, lastM.Rows, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			mrow := lastM.Row(i)
			arow := lastFactor.Row(i)
			for r := range mrow {
				s += mrow[r] * arow[r] * lambda[r]
			}
		}
		return s
	})
	return FitFromInner(normX, inner, lambda, grams)
}
