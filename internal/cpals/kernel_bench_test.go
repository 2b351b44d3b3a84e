package cpals

import (
	"testing"
	"time"

	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// BenchmarkMTTKRPKernel times MTTKRPAccumulate on one goroutine over every
// mode of the two tensor shapes the repository's benchmark trains on
// (als3-zipf, als4-tall), and reports nanoseconds per nonzero per mode.
// "perm" walks the tensor through ModeIndex.Perm as the shared-memory solver
// does; "linear" scans a copy of the entries already in Perm order;
// "columns" scans the same nonzeros stored by column (MTTKRPColumns), as a
// dist worker scans its shard. "sorted" and "shuffled" are the storage order
// of the entries Perm points into.
func BenchmarkMTTKRPKernel(b *testing.B) {
	shapes := []struct {
		name string
		rank int
		gen  func() *tensor.COO
	}{
		{"zipf3-r16", 16, func() *tensor.COO { return tensor.GenZipf(1, 2_000_000, 0.7, 40000, 30000, 20000) }},
		{"lowrank4-r64", 64, func() *tensor.COO {
			return tensor.GenLowRank(1, 300_000, 8, 0.1, 120000, 80000, 60000, 40000)
		}},
	}
	for _, s := range shapes {
		for _, storage := range []string{"sorted", "shuffled"} {
			x := s.gen()
			if storage == "sorted" {
				x.Sort()
			} else {
				shuffleEntries(x, rng.New(9))
			}
			order := x.Order()
			factors := make([]*la.Dense, order)
			outs := make([]*la.Dense, order)
			shards := make([][]tensor.Entry, order)
			columns := make([]entryColumns, order)
			for n := range factors {
				factors[n] = InitFactor(3, n, x.Dims[n], s.rank)
				outs[n] = la.NewDense(x.Dims[n], s.rank)
				mi := x.ModeIndex(n)
				shards[n] = make([]tensor.Entry, len(mi.Perm))
				for i, p := range mi.Perm {
					shards[n][i] = x.Entries[p]
				}
				columns[n] = columnsOf(shards[n], n, order)
			}
			for _, access := range []string{"perm", "linear", "columns"} {
				b.Run(s.name+"/"+storage+"/"+access, func(b *testing.B) {
					var kernel time.Duration
					for i := 0; i < b.N; i++ {
						for n := 0; n < order; n++ {
							outs[n].Zero()
							start := time.Now()
							switch access {
							case "perm":
								MTTKRPAccumulate(outs[n], 0, x.Entries, x.ModeIndex(n).Perm, n, factors)
							case "linear":
								MTTKRPAccumulate(outs[n], 0, shards[n], nil, n, factors)
							default:
								c := &columns[n]
								MTTKRPColumns(outs[n], 0, c.rows, c.vals, c.cols, n, factors)
							}
							kernel += time.Since(start)
						}
					}
					b.ReportMetric(float64(kernel.Nanoseconds())/float64(b.N*order*x.NNZ()), "ns/nnz")
				})
			}
		}
	}
}
