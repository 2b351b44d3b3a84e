package core

import (
	"math"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rdd"
)

// FactorRDD is a distributed factor matrix: rows keyed by index,
// hash-partitioned by key so tensor-factor joins can be planned against it.
type FactorRDD = rdd.Dataset[rdd.KV[uint32, []float64]]

// initFactorRDD materializes the initial factor matrix for a mode directly
// in its home partitions. Because cpals.FactorInitValue is a pure function
// of (seed, mode, row, col), no broadcast or shuffle is needed — each
// partition generates exactly its own rows.
func initFactorRDD(ctx *rdd.Context, seed uint64, mode, dim, rank int) *FactorRDD {
	return rdd.GenerateKeyed(ctx, "factor-init",
		func(p int) []Row {
			var rows []Row
			for i := 0; i < dim; i++ {
				if rdd.PartitionOf(uint32(i), ctx.Parts) != p {
					continue
				}
				row := make([]float64, rank)
				for r := range row {
					row[r] = cpals.FactorInitValue(seed, mode, i, r)
				}
				rows = append(rows, Row{Key: uint32(i), Val: row})
			}
			return rows
		}, rowSize(rank))
}

// gramOf computes the R x R gram matrix A^T A of a distributed factor with
// a single narrow aggregate (partial grams per partition, merged on the
// driver) — no shuffle, rank^2 flops per row.
func gramOf(f *FactorRDD, rank int) *la.Dense {
	return rdd.Aggregate(f,
		func() *la.Dense { return la.NewDense(rank, rank) },
		func(g *la.Dense, r Row) *la.Dense {
			row := r.Val
			for a := 0; a < rank; a++ {
				ra := row[a]
				if ra == 0 {
					continue
				}
				gr := g.Row(a)
				for b := 0; b < rank; b++ {
					gr[b] += ra * row[b]
				}
			}
			return g
		},
		func(a, b *la.Dense) *la.Dense {
			for i := range a.Data {
				a.Data[i] += b.Data[i]
			}
			return a
		},
		float64(rank*rank),
	)
}

// columnNorms computes the Euclidean norm of each column of a distributed
// factor (narrow aggregate), substituting 1 for zero columns as the serial
// reference does.
func columnNorms(f *FactorRDD, rank int) []float64 {
	sums := rdd.Aggregate(f,
		func() []float64 { return make([]float64, rank) },
		func(acc []float64, r Row) []float64 {
			for i, v := range r.Val {
				acc[i] += v * v
			}
			return acc
		},
		func(a, b []float64) []float64 {
			for i := range a {
				a[i] += b[i]
			}
			return a
		},
		float64(rank),
	)
	for i := range sums {
		sums[i] = math.Sqrt(sums[i])
		if sums[i] == 0 {
			sums[i] = 1
		}
	}
	return sums
}

// updateFactor turns an MTTKRP result M into the new normalized factor:
// A = M * pinv(V) followed by column normalization, both as narrow
// mapValues over the row RDD. It returns the persisted factor and the
// lambda vector. The R x R pinv is computed on the driver (Algorithm 1's
// dagger), costing O(R^3) there.
func updateFactor(m *rdd.Dataset[Row], v *la.Dense, rank int) (*FactorRDD, []float64) {
	ctx := m.Context()
	pinv := la.Pinv(v)
	ctx.Cluster.ChargeDriver(30 * float64(rank*rank*rank)) // Jacobi eig + inverse assembly
	bPinv := rdd.NewBroadcast(ctx, pinv, 8*rank*rank)

	raw := rdd.MapValues(m, func(row []float64) []float64 {
		out := make([]float64, rank)
		la.VecMatInto(out, row, bPinv.Value())
		return out
	}, rowSize(rank), rdd.WithFlops(2*float64(rank*rank)), rdd.WithName("applyPinv"))

	norms := columnNorms(raw, rank)
	inv := make([]float64, rank)
	for i, n := range norms {
		inv[i] = 1 / n
	}
	bInv := rdd.NewBroadcast(ctx, inv, 8*rank)
	normalized := rdd.MapValues(raw, func(row []float64) []float64 {
		scale := bInv.Value()
		out := make([]float64, rank)
		for i, v := range row {
			out[i] = v * scale[i]
		}
		return out
	}, rowSize(rank), rdd.WithFlops(float64(rank)), rdd.WithName("normalize"))

	return normalized.Persist(), norms
}

// collectFactor gathers a distributed factor into a dense matrix with dim
// rows; indices never updated (no nonzeros in that slice) stay zero,
// matching the serial reference.
func collectFactor(f *FactorRDD, dim, rank int) *la.Dense {
	out := la.NewDense(dim, rank)
	for k, row := range rdd.CollectMap(f) {
		copy(out.Row(int(k)), row)
	}
	return out
}

// innerProduct computes <X, X_hat> = sum_{i,r} M(i,r) A(i,r) lambda_r from
// the last MTTKRP result and the factor it produced — a narrow
// co-partitioned join plus an aggregate (the SPLATT fit trick,
// cpals.FitFromWorkers' distributed half).
func innerProduct(m *rdd.Dataset[Row], factor *FactorRDD, lambda []float64, rank int) float64 {
	joined := rdd.Join(m, factor, func(rdd.KV[uint32, rdd.Pair[[]float64, []float64]]) int {
		return 8 * (1 + 2*rank)
	}, rdd.WithName("fit-join"))
	return rdd.Aggregate(joined,
		func() float64 { return 0 },
		func(acc float64, r rdd.KV[uint32, rdd.Pair[[]float64, []float64]]) float64 {
			for i := range r.Val.A {
				acc += r.Val.A[i] * r.Val.B[i] * lambda[i]
			}
			return acc
		},
		func(a, b float64) float64 { return a + b },
		2*float64(rank),
	)
}
