package tensor

import "fmt"

// Matricization support. CSTF's whole point is to avoid unfolding the
// tensor; this file exists so the BIGtensor/GigaTensor baseline can be
// reproduced faithfully, since that system computes on the mode-n
// matricized tensor X(n).
//
// We follow the Kolda-Bader convention: tensor element (i_0, ..., i_{N-1})
// maps to matrix element (i_n, j) with
//
//	j = sum_{k != n} i_k * J_k,   J_k = prod_{m < k, m != n} I_m.
//
// For a 3rd-order tensor and mode 0 this gives j = i_1 + i_2 * I_1, i.e.
// the z = k*J + j linearization of Equation 2 in the paper, where rows of C
// are recovered as z / J and rows of B as z % J.

// MatEntry is one nonzero of a matricized tensor.
type MatEntry struct {
	Row uint32 // index along the matricization mode
	Col uint64 // linearized index over all other modes
	Val float64
}

// UnfoldStrides returns the stride J_k of every mode for the mode-n
// matricization (stride of mode n itself is 0).
func UnfoldStrides(dims []int, n int) []uint64 {
	if n < 0 || n >= len(dims) {
		panic(fmt.Sprintf("tensor: matricization mode %d out of range", n))
	}
	strides := make([]uint64, len(dims))
	acc := uint64(1)
	for k := range dims {
		if k == n {
			continue
		}
		strides[k] = acc
		acc *= uint64(dims[k])
	}
	return strides
}

// LinearizeEntry returns the (row, col) position of entry e in the mode-n
// matricization with the given strides.
func LinearizeEntry(e *Entry, n int, strides []uint64) (uint32, uint64) {
	var col uint64
	for k, s := range strides {
		if k == n {
			continue
		}
		col += uint64(e.Idx[k]) * s
	}
	return e.Idx[n], col
}

// Matricize returns the mode-n unfolding of t as a list of matrix nonzeros.
// Only tests call it: it is the oracle the cpals MTTKRP is checked against.
func (t *COO) Matricize(n int) []MatEntry {
	strides := UnfoldStrides(t.Dims, n)
	out := make([]MatEntry, len(t.Entries))
	for i := range t.Entries {
		e := &t.Entries[i]
		r, c := LinearizeEntry(e, n, strides)
		out[i] = MatEntry{Row: r, Col: c, Val: e.Val}
	}
	return out
}
