// Package cstf is the public API of this repository: a Go implementation
// of CSTF — Cloud-based Sparse Tensor Factorization (Blanco, Liu, Mehri
// Dehnavi; ICPP 2018) — together with everything it runs on: a Spark-like
// dataset engine, a Hadoop-like MapReduce engine, a simulated multi-node
// cluster with a calibrated cost model, and the BIGtensor/GigaTensor
// baseline the paper compares against.
//
// The package exposes sparse tensors in coordinate (COO) format, FROSTT
// .tns I/O, synthetic generators (including scaled stand-ins for the
// paper's Table 5 datasets), and CP-ALS decomposition via four
// interchangeable algorithms: the serial reference, CSTF-COO, CSTF-QCOO,
// and BIGtensor. Distributed runs execute their numerics for real while a
// deterministic cost model reports cluster-scale runtimes and shuffle
// traffic.
//
// Quick start:
//
//	x := cstf.RandomTensor(1, 50_000, 1000, 800, 600)
//	dec, err := cstf.Decompose(x, cstf.Options{Rank: 8})
//	fmt.Println(dec.Fit(), dec.Metrics.SimSeconds)
package cstf

import (
	"fmt"
	"io"

	"cstf/internal/rank"
	"cstf/internal/tensor"
	"cstf/internal/workload"
)

// Tensor is an N-order sparse tensor in coordinate (COO) storage: the
// format both CSTF algorithms compute on directly.
type Tensor struct {
	coo *tensor.COO
}

// NewTensor creates an empty sparse tensor with the given mode sizes
// (order 1 to 8).
func NewTensor(dims ...int) *Tensor {
	return &Tensor{coo: tensor.New(dims...)}
}

// Append adds a nonzero at the given 0-based coordinate.
func (t *Tensor) Append(val float64, idx ...int) { t.coo.Append(val, idx...) }

// Order returns the number of modes.
func (t *Tensor) Order() int { return t.coo.Order() }

// Dims returns a copy of the mode sizes.
func (t *Tensor) Dims() []int { return append([]int(nil), t.coo.Dims...) }

// NNZ returns the number of stored nonzeros.
func (t *Tensor) NNZ() int { return t.coo.NNZ() }

// Density returns nnz divided by the tensor's dense volume.
func (t *Tensor) Density() float64 { return t.coo.Density() }

// Norm returns the Frobenius norm.
func (t *Tensor) Norm() float64 { return t.coo.Norm() }

// At returns the value at a coordinate (O(nnz); intended for spot checks).
func (t *Tensor) At(idx ...int) float64 { return t.coo.At(idx...) }

// Dedup sorts the entries and merges duplicate coordinates by summing them
// in the order they were added, so the sums do not depend on how the sort
// runs. Every entry whose summed value is exactly zero is dropped, a lone
// explicit zero included.
func (t *Tensor) Dedup() { t.coo.DedupSum() }

// Entry returns the i-th stored nonzero as (coordinate, value).
func (t *Tensor) Entry(i int) ([]int, float64) {
	e := &t.coo.Entries[i]
	idx := make([]int, t.Order())
	for m := range idx {
		idx[m] = int(e.Idx[m])
	}
	return idx, e.Val
}

// WriteTNS writes the tensor in FROSTT .tns text format (1-based indices).
func (t *Tensor) WriteTNS(w io.Writer) error { return tensor.WriteTNS(w, t.coo) }

// Save writes the tensor to a .tns file.
func (t *Tensor) Save(path string) error { return tensor.SaveTNSFile(path, t.coo) }

// ReadTNS parses a FROSTT .tns stream, inferring mode sizes from the data.
func ReadTNS(r io.Reader) (*Tensor, error) {
	coo, err := tensor.ReadTNS(r, nil)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: coo}, nil
}

// LoadTensor reads a .tns file from disk.
func LoadTensor(path string) (*Tensor, error) {
	coo, err := tensor.LoadTNSFile(path)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: coo}, nil
}

// RandomTensor generates approximately nnz uniform-random nonzeros,
// deterministically in seed.
func RandomTensor(seed uint64, nnz int, dims ...int) *Tensor {
	return &Tensor{coo: tensor.GenUniform(seed, nnz, dims...)}
}

// ZipfTensor generates a tensor with heavy-tailed (Zipf) fiber occupancy,
// the skew pattern of real web-crawl tensors. theta in (0, 1) controls the
// skew strength.
func ZipfTensor(seed uint64, nnz int, theta float64, dims ...int) *Tensor {
	return &Tensor{coo: tensor.GenZipf(seed, nnz, theta, dims...)}
}

// LowRankTensor samples a planted rank-r CP model at approximately nnz
// random coordinates with additive Gaussian noise. Useful for recovery
// studies; note the sparse sampling mask makes the stored tensor itself
// not exactly rank r.
func LowRankTensor(seed uint64, nnz, r int, noise float64, dims ...int) *Tensor {
	return &Tensor{coo: tensor.GenLowRank(seed, nnz, r, noise, dims...)}
}

// DenseLowRankTensor builds a tensor holding a rank-r CP model at EVERY
// coordinate (plus Gaussian noise), so CP-ALS at rank r can reach a
// near-perfect fit. The entry count is the full dense volume — keep dims
// small.
func DenseLowRankTensor(seed uint64, r int, noise float64, dims ...int) *Tensor {
	return &Tensor{coo: tensor.GenLowRankDense(seed, r, noise, dims...)}
}

// RecsysTensor generates a (users x items x contexts) implicit-feedback
// tensor with planted per-user preference structure: users and items are
// hashed into `groups` interest groups, interactions concentrate on
// in-group items, and values come from a planted nonnegative rank-`groups`
// model. It is the recommendation workload behind `cstf-bench -exp recsys`
// — a rank-`groups` nonnegative factorization (Algorithm NCP) recovers the
// structure and out-recommends the popularity baseline on it.
func RecsysTensor(seed uint64, nnz, users, items, contexts, groups int, noise float64) *Tensor {
	return &Tensor{coo: tensor.GenRecsys(seed, nnz, users, items, contexts, groups, noise)}
}

// SplitHoldout carves a deterministic per-user leave-out split for
// recommender evaluation: for every row of userMode with at least two
// nonzeros, the interaction with the smallest coordinate hash moves to the
// held-out tensor; everything else stays in training. The split is a pure
// function of (seed, tensor) — disjoint, reproducible, independent of
// entry order — so a benchmark and a test sharing the seed evaluate
// against identical truths.
func SplitHoldout(t *Tensor, seed uint64, userMode int) (train, held *Tensor, err error) {
	tr, he, err := rank.Split(t.coo, seed, userMode)
	if err != nil {
		return nil, nil, err
	}
	return &Tensor{coo: tr}, &Tensor{coo: he}, nil
}

// Dataset generates a scaled synthetic stand-in for one of the paper's
// Table 5 datasets: "delicious3d", "nell1", "synt3d", "flickr", or
// "delicious4d". scale in (0, 1] is the fraction of the published size.
func Dataset(name string, scale float64) (*Tensor, error) {
	cfg, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: cfg.Generate(scale)}, nil
}

// DatasetNames lists the Table 5 dataset names.
func DatasetNames() []string {
	var out []string
	for _, c := range workload.Datasets() {
		out = append(out, c.Name)
	}
	return out
}

// String summarizes the tensor.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(order=%d dims=%v nnz=%d density=%.2e)",
		t.Order(), t.Dims(), t.NNZ(), t.Density())
}
