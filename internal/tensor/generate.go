package tensor

import (
	"cstf/internal/par"
	"cstf/internal/rng"
)

// Synthetic tensor generators. The FROSTT datasets the paper evaluates are
// multi-gigabyte downloads; these generators produce deterministic tensors
// with the same order, mode-size ratios, and fiber-occupancy skew at a
// configurable scale (see internal/workload for the Table 5 configs).

// drawChunk is how many entries one task of a chunked generator draws. It
// is a constant of the stream layout, never of the worker count.
const drawChunk = 1 << 16

// drawEntries fills n entries on the worker pool with draw, which must
// consume exactly `draws` values of src per entry. Chunk c then starts from
// rng.New(seed) skipped by c·drawChunk·draws values — the point one serial
// loop over the stream would have reached — so the entries are the serial
// loop's for any worker count.
func drawEntries(seed uint64, n, draws int, draw func(src *rng.SplitMix64, e *Entry)) []Entry {
	es := make([]Entry, n)
	par.Run(0, (n+drawChunk-1)/drawChunk, func(c int) {
		lo := c * drawChunk
		src := rng.New(seed)
		src.Skip(uint64(lo) * uint64(draws))
		for i := lo; i < min(lo+drawChunk, n); i++ {
			draw(src, &es[i])
		}
	})
	return es
}

// GenUniform generates approximately nnz uniform-random nonzeros (duplicate
// coordinates are merged, so the exact count can be slightly lower). Values
// are uniform in [0, 1). This models the paper's synt3d dataset.
func GenUniform(seed uint64, nnz int, dims ...int) *COO {
	t := New(dims...)
	t.Entries = uniformEntries(seed, nnz, dims)
	t.DedupSum()
	return t
}

// uniformEntries draws GenUniform's nonzeros before duplicates are merged.
func uniformEntries(seed uint64, nnz int, dims []int) []Entry {
	return drawEntries(seed, nnz, len(dims)+1, func(src *rng.SplitMix64, e *Entry) {
		for m, d := range dims {
			e.Idx[m] = uint32(src.Intn(d))
		}
		e.Val = src.Float64()
	})
}

// GenZipf generates approximately nnz nonzeros whose per-mode indices
// follow a Zipf distribution with the given exponent, then shuffles index
// identity with a hash permutation so the skew is not concentrated at index
// zero. Real web-crawl tensors (delicious, flickr, NELL) have exactly this
// kind of heavy-tailed fiber occupancy.
func GenZipf(seed uint64, nnz int, theta float64, dims ...int) *COO {
	t := New(dims...)
	t.Entries = zipfEntries(seed, nnz, theta, dims)
	t.DedupSum()
	return t
}

// zipfEntries draws GenZipf's nonzeros before duplicates are merged.
func zipfEntries(seed uint64, nnz int, theta float64, dims []int) []Entry {
	zipfs := make([]*rng.Zipf, len(dims))
	for m, d := range dims {
		zipfs[m] = rng.NewZipf(d, theta)
	}
	return drawEntries(seed, nnz, len(dims)+1, func(src *rng.SplitMix64, e *Entry) {
		for m, d := range dims {
			raw := zipfs[m].Next(src)
			// Pseudo-random permutation of [0, d) so hot indices are spread out.
			e.Idx[m] = uint32(rng.Hash64(seed, uint64(m), uint64(raw)) % uint64(d))
		}
		e.Val = src.Float64()
	})
}

// GenLowRankDense generates a tensor holding a rank-r CP model at EVERY
// coordinate (plus optional Gaussian noise). Unlike GenLowRank, the result
// really is a rank-r tensor, so CP-ALS must reach a near-perfect fit on it
// — the strongest end-to-end correctness check available for the solvers.
// Use only for small dims (the entry count is the full dense volume).
func GenLowRankDense(seed uint64, r int, noise float64, dims ...int) *COO {
	t := New(dims...)
	src := rng.New(seed)
	order := len(dims)
	factorVal := func(m, i, col int) float64 {
		return 0.1 + rng.UniformAt(seed, uint64(m), uint64(i), uint64(col))
	}
	var e Entry
	var emit func(m int)
	emit = func(m int) {
		if m == order {
			var v float64
			for col := 0; col < r; col++ {
				p := 1.0
				for n := 0; n < order; n++ {
					p *= factorVal(n, int(e.Idx[n]), col)
				}
				v += p
			}
			if noise > 0 {
				v += noise * src.NormFloat64()
			}
			e.Val = v
			t.Entries = append(t.Entries, e)
			return
		}
		for i := 0; i < dims[m]; i++ {
			e.Idx[m] = uint32(i)
			emit(m + 1)
		}
	}
	emit(0)
	return t
}

// GenBlockSparse generates approximately nnz nonzeros arranged as dense
// cubic blocks of side `block` scattered at random origins, each cell
// holding the rank-r planted CP model value (plus optional Gaussian noise).
// Overlapping blocks merge by summation. Real recommender and knowledge-
// graph tensors have exactly this community structure — dense pockets in a
// very sparse ambient space — and it is the regime where fiber-reuse
// kernels (CSF) do asymptotically fewer vector operations than the
// per-nonzero COO loop: every length-`block` fiber shares one partial
// Hadamard product.
func GenBlockSparse(seed uint64, nnz, r, block int, noise float64, dims ...int) *COO {
	t := New(dims...)
	src := rng.New(seed)
	order := len(dims)
	for _, d := range dims {
		if block > d {
			panic("tensor: GenBlockSparse block larger than a dim")
		}
	}
	factorVal := func(m, i, col int) float64 {
		return 0.1 + rng.UniformAt(seed, uint64(m), uint64(i), uint64(col))
	}

	t.Entries = make([]Entry, 0, nnz)
	origin := make([]int, order)
	idx := make([]int, order)
	var emit func(m int)
	emit = func(m int) {
		if m == order {
			var v float64
			for col := 0; col < r; col++ {
				p := 1.0
				for n := 0; n < order; n++ {
					p *= factorVal(n, idx[n], col)
				}
				v += p
			}
			if noise > 0 {
				v += noise * src.NormFloat64()
			}
			var e Entry
			for n := 0; n < order; n++ {
				e.Idx[n] = uint32(idx[n])
			}
			e.Val = v
			t.Entries = append(t.Entries, e)
			return
		}
		for i := origin[m]; i < origin[m]+block; i++ {
			idx[m] = i
			emit(m + 1)
		}
	}
	for len(t.Entries) < nnz {
		for m, d := range dims {
			origin[m] = src.Intn(d - block + 1)
		}
		emit(0)
	}
	t.DedupSum()
	return t
}

// GenRecsys generates a (users x items x contexts) implicit-feedback
// tensor with planted per-user preference structure — the recommender
// workload the serving and evaluation layers are measured on. Users and
// items are hashed into `groups` interest groups; a user's interactions
// land on items of the user's own group with probability ~0.8 (uniform
// otherwise), and every value is the planted nonnegative rank-`groups`
// model evaluated at that coordinate (component g loads high exactly on
// group-g users and items) plus optional nonnegative noise. The planted
// model is a pure function of the seed, so two tensors from the same
// (seed, shape) are identical entry for entry, and a rank-`groups`
// nonnegative factorization can recover the structure — which is what
// makes a trained model separable from the popularity baseline: the best
// unseen items for a user are in-group, not globally popular.
func GenRecsys(seed uint64, nnz, users, items, contexts, groups int, noise float64) *COO {
	if groups <= 0 {
		groups = 1
	}
	t := New(users, items, contexts)
	src := rng.New(seed)

	groupOf := func(tag uint64, rows int) []int {
		gs := make([]int, rows)
		for r := range gs {
			gs[r] = int(rng.Hash64(seed, tag, uint64(r)) % uint64(groups))
		}
		return gs
	}
	userGroup, itemGroup := groupOf(0xEC1, users), groupOf(0xEC2, items)
	// Planted loadings, one row of `groups` per user / item / context: ~1.1
	// on the own group's component, ~0.1 off-group.
	userVal := loadings(users, groups, func(u, g int) float64 {
		v := 0.05 + 0.1*rng.UniformAt(seed, 0xEC3, uint64(u), uint64(g))
		if userGroup[u] == g {
			v += 1
		}
		return v
	})
	itemVal := loadings(items, groups, func(i, g int) float64 {
		v := 0.05 + 0.1*rng.UniformAt(seed, 0xEC4, uint64(i), uint64(g))
		if itemGroup[i] == g {
			v += 1
		}
		return v
	})
	ctxVal := loadings(contexts, groups, func(c, g int) float64 {
		return 0.5 + 0.5*rng.UniformAt(seed, 0xEC5, uint64(c), uint64(g))
	})

	byGroup := make([][]int, groups)
	for i, g := range itemGroup {
		byGroup[g] = append(byGroup[g], i)
	}

	t.Entries = make([]Entry, 0, nnz)
	for len(t.Entries) < nnz {
		u := src.Intn(users)
		c := src.Intn(contexts)
		var i int
		if in := byGroup[userGroup[u]]; len(in) > 0 && src.Float64() < 0.8 {
			i = in[src.Intn(len(in))]
		} else {
			i = src.Intn(items)
		}
		uv, iv, cv := userVal[u*groups:(u+1)*groups], itemVal[i*groups:(i+1)*groups], ctxVal[c*groups:(c+1)*groups]
		var v float64
		for g := range uv {
			v += uv[g] * iv[g] * cv[g]
		}
		if noise > 0 {
			if n := noise * src.NormFloat64(); n > 0 {
				v += n
			}
		}
		t.Entries = append(t.Entries, Entry{Idx: [MaxOrder]uint32{uint32(u), uint32(i), uint32(c)}, Val: v})
	}
	t.DedupSum()
	return t
}

// loadings tabulates f at every (row, g), row-major, on the worker pool.
func loadings(rows, groups int, f func(row, g int) float64) []float64 {
	out := make([]float64, rows*groups)
	par.ForBlocks(0, rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			for g := 0; g < groups; g++ {
				out[r*groups+g] = f(r, g)
			}
		}
	})
	return out
}

// GenLowRank generates a tensor that is a rank-r CP model sampled at
// approximately nnz random coordinates (plus optional Gaussian noise).
// Note the sampling mask makes the resulting sparse tensor NOT globally
// rank-r (unsampled coordinates are zero); use GenLowRankDense when a
// truly low-rank tensor is required.
func GenLowRank(seed uint64, nnz, r int, noise float64, dims ...int) *COO {
	t := New(dims...)
	src := rng.New(seed)
	order := len(dims)

	// Factor row (m, i) is a pure function of the seed, so the planted
	// model is reproducible without storing the factors.
	factorVal := func(m, i, col int) float64 {
		return 0.1 + rng.UniformAt(seed, uint64(m), uint64(i), uint64(col))
	}

	// The draws stay serial — NormFloat64 takes a varying number of them —
	// with each entry's normal variate parked in Val. The planted values,
	// nearly all of the work, are then computed on every core.
	t.Entries = make([]Entry, 0, nnz)
	for len(t.Entries) < nnz {
		var e Entry
		for m, d := range dims {
			e.Idx[m] = uint32(src.Intn(d))
		}
		if noise > 0 {
			e.Val = src.NormFloat64()
		}
		t.Entries = append(t.Entries, e)
	}
	par.ForBlocks(0, len(t.Entries), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &t.Entries[i]
			var v float64
			for col := 0; col < r; col++ {
				p := 1.0
				for m := 0; m < order; m++ {
					p *= factorVal(m, int(e.Idx[m]), col)
				}
				v += p
			}
			if noise > 0 {
				v += noise * e.Val
			}
			e.Val = v
		}
	})
	t.DedupSum()
	return t
}
