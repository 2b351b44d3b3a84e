package tensor

import (
	"fmt"
	"slices"
)

// CSF is the compressed sparse fiber format of SPLATT (Smith et al.,
// IPDPS'15), the shared-memory state of the art the paper's related work
// cites. The nonzeros are organized as a forest: level 0 holds the unique
// indices of the first mode in ModeOrder, each pointing to its slice of
// level-1 nodes, and so on; leaves carry the values. An MTTKRP along the
// root mode then reuses each fiber's partial Hadamard product across all
// nonzeros sharing the fiber, which COO cannot.
//
// CSTF itself computes on COO (that is the paper's point — COO ships whole
// to the distributed engines); CSF exists here as the high-performance
// local kernel and as an independent MTTKRP implementation to validate
// against.
type CSF struct {
	ModeOrder []int      // ModeOrder[l] = tensor mode stored at level l
	Idx       [][]uint32 // per level: node indices (level L has one per nonzero)
	Ptr       [][]int32  // per level < last: Idx[l+1] range of node n is [Ptr[l][n], Ptr[l][n+1])
	Vals      []float64  // leaf values, aligned with the last level's Idx
	Dims      []int      // original tensor dims
}

// NewCSF builds a CSF tree for the given mode ordering (a permutation of
// 0..order-1) over the entries DedupSum would leave: entries with equal
// coordinates become one leaf whose value is their sum in input order, and
// no leaf holds exactly zero. NewCSF(t) is therefore NewCSF of t after
// DedupSum.
func NewCSF(t *COO, modeOrder []int) *CSF {
	order := t.Order()
	if len(modeOrder) != order {
		panic("tensor: CSF mode order length mismatch")
	}
	seen := make([]bool, order)
	for _, m := range modeOrder {
		if m < 0 || m >= order || seen[m] {
			panic(fmt.Sprintf("tensor: invalid CSF mode order %v", modeOrder))
		}
		seen[m] = true
	}

	// Sort a copy lexicographically in ModeOrder, stably, and sum its runs.
	entries := slices.Clone(t.Entries)
	sortEntries(entries, modeOrder)
	entries = sumRuns(entries, order)

	c := &CSF{
		ModeOrder: append([]int(nil), modeOrder...),
		Idx:       make([][]uint32, order),
		Ptr:       make([][]int32, order-1),
		Vals:      make([]float64, 0, len(entries)),
		Dims:      append([]int(nil), t.Dims...),
	}
	if len(entries) == 0 {
		for l := 0; l < order-1; l++ {
			c.Ptr[l] = []int32{0}
		}
		return c
	}

	// A node at level l begins wherever any index at level <= l changes
	// relative to the previous (sorted) entry. Ptr[l][n] records where node
	// n's children start in level l+1.
	counts := make([]int, order) // nodes emitted so far per level
	for i := range entries {
		e := &entries[i]
		newAt := 0 // first level whose index differs from the previous entry
		if i > 0 {
			prev := &entries[i-1]
			for l, m := range modeOrder {
				if e.Idx[m] != prev.Idx[m] {
					newAt = l
					break
				}
			}
		}
		for l := newAt; l < order; l++ {
			c.Idx[l] = append(c.Idx[l], e.Idx[modeOrder[l]])
			if l < order-1 {
				c.Ptr[l] = append(c.Ptr[l], int32(counts[l+1]))
			}
			counts[l]++
		}
		c.Vals = append(c.Vals, e.Val)
	}
	for l := 0; l < order-1; l++ {
		c.Ptr[l] = append(c.Ptr[l], int32(counts[l+1]))
	}
	return c
}

// NNZ returns the number of stored nonzeros.
func (c *CSF) NNZ() int { return len(c.Vals) }

// Fibers returns the node count at each level (diagnostics: how much
// prefix sharing the ordering achieved).
func (c *CSF) Fibers() []int {
	out := make([]int, len(c.Idx))
	for l := range c.Idx {
		out[l] = len(c.Idx[l])
	}
	return out
}
