package cpals

import (
	"runtime"
	"testing"
	"time"

	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// BenchmarkMTTKRPKernel times mttkrpAccumulate on one goroutine over every
// mode of the two tensor shapes the repository's benchmark trains on
// (als3-zipf, als4-tall), and reports nanoseconds per nonzero per mode.
// "perm" walks the tensor through ModeIndex.Perm as the shared-memory solver
// does; "linear" scans a copy of the entries already in Perm order;
// "columns" scans the same nonzeros stored by column (MTTKRPColumns), as a
// dist worker scans its shard; "resident" streams the mode columns a Serial
// solve holds, as its MTTKRPs do (with sorted storage mode 0 scans the
// entries in place). "sorted" and "shuffled" are the storage order of the
// entries Perm points into. "collapsed" is benchCollapsed.
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
			held := &COOSource{}
			release := held.keepColumns(x, 0)
			for _, access := range []string{"perm", "linear", "columns", "resident"} {
				b.Run(s.name+"/"+storage+"/"+access, func(b *testing.B) {
					var kernel time.Duration
					for i := 0; i < b.N; i++ {
						for n := 0; n < order; n++ {
							outs[n].Zero()
							start := time.Now()
							switch access {
							case "perm":
								mttkrpAccumulate(outs[n], 0, x.Entries, x.ModeIndex(n).Perm, n, factors, nil)
							case "linear":
								mttkrpAccumulate(outs[n], 0, shards[n], nil, n, factors, nil)
							case "resident":
								held.res.mttkrp(n, factors, 1, outs[n], nil)
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
			release()
		}
	}
	b.Run("lowrank4-r64/collapsed", benchCollapsed)
}

// benchCollapsed is als4-tall's steady state: every factor row zero but
// 64/63/65/65 live ones, the rows of the first nonzeros drawn, normalized.
// "plain" is mttkrpAccumulate over the mode index; "skip" is a COOSource
// told about the factors and their marks, which drops the nonzeros that
// meet a zero row (gate included).
func benchCollapsed(b *testing.B) {
	const rank = 64
	x := tensor.GenLowRank(1, 300_000, 8, 0.1, 120000, 80000, 60000, 40000)
	order := x.Order()
	live := []int{64, 63, 65, 65}
	factors := make([]*la.Dense, order)
	outs := make([]*la.Dense, order)
	for n := range factors {
		f := la.NewDense(x.Dims[n], rank)
		for p := 0; live[n] > 0; p++ {
			i := int(x.Entries[p].Idx[n])
			if row := f.Row(i); row[0] == 0 {
				for c := range row {
					row[c] = FactorInitValue(3, n, i, c)
				}
				live[n]--
			}
		}
		la.NormalizeColumnsParallel(f, 1)
		factors[n] = f
		outs[n] = la.NewDense(x.Dims[n], rank)
		x.ModeIndex(n)
	}
	for _, skip := range []bool{false, true} {
		name := "plain"
		if skip {
			name = "skip"
		}
		b.Run(name, func(b *testing.B) {
			src := &COOSource{Workers: 1}
			for n, f := range factors {
				src.FactorUpdated(n, f, scanMarks(f))
			}
			var kernel time.Duration
			for i := 0; i < b.N; i++ {
				for n := 0; n < order; n++ {
					outs[n].Zero()
					start := time.Now()
					if skip {
						if err := src.MTTKRP(x, n, factors, nil, outs[n]); err != nil {
							b.Fatal(err)
						}
					} else {
						mttkrpAccumulate(outs[n], 0, x.Entries, x.ModeIndex(n).Perm, n, factors, nil)
					}
					kernel += time.Since(start)
				}
			}
			b.ReportMetric(float64(kernel.Nanoseconds())/float64(b.N*order*x.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkSolveTall runs a two-iteration SolveWith at the repository
// benchmark's als4-tall shape (order 4, 300 k nonzeros, rank 64) and reports
// the megabytes one solve allocates, next to the factors' size: most of it
// is the factors and one MTTKRP output slab the size of the largest mode.
// The mode columns the solve streams are mapped outside the Go heap and are
// not in the count.
func BenchmarkSolveTall(b *testing.B) {
	dims := []int{120000, 80000, 60000, 40000}
	const rank = 64
	x := tensor.GenLowRank(1, 300_000, 8, 0.1, dims...)
	var factorBytes int
	for _, d := range dims {
		factorBytes += d * rank * 8
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveWith(x, Options{Rank: rank, MaxIters: 2, Seed: 1}, Update{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB/solve")
	b.ReportMetric(float64(factorBytes)/1e6, "factor-MB")
}
