package serve

import (
	"fmt"
	"math"
	"testing"

	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/rng"
)

// refTopK is the row-at-a-time scan every exact ranked query ran before
// scanRows: one la.VecDot per row, every surviving row offered to the
// heap. It is kept only as the bitwise reference for the kernel.
func refTopK(f *la.Dense, q []float64, k int, divisors []float64, self int, ex []int, lo, hi int) []Scored {
	var h topKHeap
	c := f.Cols
	for i := lo; i < hi; i++ {
		if i == self || excluded(ex, i) {
			continue
		}
		s := la.VecDot(f.Data[i*c:(i+1)*c], q)
		if divisors != nil {
			if d := divisors[i]; d > 0 {
				s /= d
			} else {
				s = 0
			}
		}
		h.pushK(k, Scored{Index: i, Score: s})
	}
	return h.sorted()
}

// topKBatch runs one batchScan over rows [rlo, rhi) of f for the queries
// qs on a par pool of `workers` goroutines — the executor's blocked scan
// without its reusable state. divisors, excl (Similar's own row per query)
// and exSets may each be nil for "none".
func topKBatch(f *la.Dense, qs [][]float64, ks []int, divisors [][]float64, excl []int, exSets [][]int, workers, rlo, rhi int) [][]Scored {
	sqs := make([]scanQuery, len(qs))
	for i := range qs {
		sqs[i] = scanQuery{q: qs[i], k: ks[i], self: -1}
		if divisors != nil {
			sqs[i].divisors = divisors[i]
		}
		if excl != nil {
			sqs[i].self = excl[i]
		}
		if exSets != nil {
			sqs[i].ex = exSets[i]
		}
	}
	var b batchScan
	b.reset(f, rlo, rhi, sqs)
	par.Run(workers, b.blocks(), b.block)
	out := make([][]Scored, len(qs))
	for i := range out {
		out[i] = b.result(i)
	}
	return out
}

func requireBitwise(t *testing.T, got, want []Scored, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// The four-row kernel, alone and blocked over a batch, must reproduce the
// row-at-a-time reference bit for bit: every rank from 1 to 17 plus 64,
// row ranges starting and ending off a multiple of 4, ties, zero rows,
// exclude sets, Similar's divisors and self-exclusion.
func TestScanMatchesRowAtATimeReference(t *testing.T) {
	g := rng.New(3)
	for _, rank := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 64} {
		m := goldenModel(t, uint64(rank), rank, 2*par.BlockSize+7, 23)
		f, rows := m.factors[0], m.Dims[0]
		for trial := 0; trial < 12; trial++ {
			lo := g.Intn(rows / 2)
			hi := lo + g.Intn(rows-lo+1)
			k := 1 + g.Intn(50)
			var ex []int
			if trial%3 == 1 {
				for j := 0; j < 40; j++ {
					ex = append(ex, lo+g.Intn(hi-lo+1))
				}
				ex = normalizeExclude(ex)
			}
			row := g.Intn(m.Dims[1])
			q := m.queryVec(make([]float64, m.Components), &Query{Mode: 0, Given: []Cond{{1, row}}})
			label := fmt.Sprintf("rank %d [%d,%d) k %d", rank, lo, hi, k)
			requireBitwise(t, topKOne(f, q, k, nil, -1, ex, lo, hi), refTopK(f, q, k, nil, -1, ex, lo, hi), label+" topk")

			self := g.Intn(rows)
			sq := m.queryVec(make([]float64, m.Components), &Query{Kind: Similar, Mode: 0, Row: self})
			want := refTopK(f, sq, k, m.rowNorms[0], self, nil, lo, hi)
			requireBitwise(t, topKOne(f, sq, k, m.rowNorms[0], self, nil, lo, hi), want, label+" similar")

			for _, workers := range []int{1, 3} {
				got := topKBatch(f, [][]float64{q, sq}, []int{k, k}, [][]float64{nil, m.rowNorms[0]}, []int{-1, self}, [][]int{ex, nil}, workers, lo, hi)
				requireBitwise(t, got[0], refTopK(f, q, k, nil, -1, ex, lo, hi), label+" batched topk")
				requireBitwise(t, got[1], want, label+" batched similar")
			}
		}
	}
}

// BenchmarkScan times one query's scan on one goroutine at the query-mode
// shapes of the als3-zipf (30,000 × 16) and als4-tall (80,000 × 64)
// benchmark workloads, the four-row kernel against the row-at-a-time
// reference, and reports ns per row and allocations per query.
//
//	go test ./internal/serve -run '^$' -bench Scan -benchtime 200x -cpu 1
func BenchmarkScan(b *testing.B) {
	for _, sh := range []struct{ rows, rank int }{{30_000, 16}, {80_000, 64}} {
		g := rng.New(1)
		f := la.NewDense(sh.rows, sh.rank)
		for i := range f.Data {
			f.Data[i] = g.Float64()*2 - 1
		}
		q := make([]float64, sh.rank)
		for i := range q {
			q[i] = g.Float64()*2 - 1
		}
		for _, impl := range []struct {
			name string
			scan func(*la.Dense, []float64, int, []float64, int, []int, int, int) []Scored
		}{{"kernel", topKOne}, {"reference", refTopK}} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.rows, sh.rank, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = impl.scan(f, q, 10, nil, -1, nil, 0, sh.rows)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.rows), "ns/row")
			})
		}
	}
}

var benchSink []Scored
