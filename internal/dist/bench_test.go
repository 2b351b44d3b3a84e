package dist

import (
	"runtime"
	"testing"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

// zipf3 is the shape the repository's benchmark trains on (als3-zipf,
// dist2-zipf3).
func zipf3() *tensor.COO { return tensor.GenZipf(1, 2_000_000, 0.7, 40000, 30000, 20000) }

// BenchmarkSessionStart times a dist session from NewSession to every shard
// resident on two in-process workers: dial, partition, the fused encode +
// touched-row pass, the transfer over loopback, and the workers' decode into
// columns. The mode indexes are built before the clock starts (Serial pays
// for them too). Besides ms it reports the megabytes allocated on the way
// and, from the live heap after a collection, the bytes that stay resident
// per (mode, nonzero) pair — the workers' columns and little else.
func BenchmarkSessionStart(b *testing.B) {
	x := zipf3()
	order := x.Order()
	for m := 0; m < order; m++ {
		x.ModeIndex(m)
	}
	var ms runtime.MemStats
	var wall time.Duration
	var allocated, resident uint64
	for i := 0; i < b.N; i++ {
		c, err := StartInProcess(2)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		total0, live0 := ms.TotalAlloc, ms.HeapAlloc
		start := time.Now()
		s, err := NewSession(x, 16, c.Config())
		if err != nil {
			b.Fatal(err)
		}
		ranges := make([][]tensor.NNZRange, order)
		for m := range ranges {
			ranges[m] = x.ModeIndex(m).Ranges(2)
		}
		s.shipShards(ranges)
		// A connection is ordered and a worker decodes a shard before it
		// reads the next frame, so an answered task means its shards landed.
		// An empty MTTKRP task needs no factor and no shard.
		barrier := make([]*stageTask, len(s.remotes))
		for k := range barrier {
			barrier[k] = &stageTask{home: k, task: &Task{Kind: TaskPartialMTTKRP}}
		}
		if err := s.runStage(barrier); err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - total0
		runtime.GC()
		runtime.ReadMemStats(&ms)
		resident += ms.HeapAlloc - live0
		s.Close()
		c.Close()
	}
	n := float64(b.N)
	b.ReportMetric(float64(wall.Milliseconds())/n, "ms")
	b.ReportMetric(float64(allocated)/n/1e6, "MB-allocated")
	b.ReportMetric(float64(resident)/n/float64(order*x.NNZ()), "resident-B/nnz")
}

// BenchmarkShardCodec reports ns per nonzero for the one shard encoder — fed
// in place through the mode index, as a session feeds it, and fed a
// materialised shard, as bench/ feeds it — and for the column decoder.
func BenchmarkShardCodec(b *testing.B) {
	x := zipf3()
	rg := tensor.NNZRange{RowLo: 0, RowHi: x.Dims[0], Lo: 0, Hi: x.NNZ()}
	perNNZ := func(b *testing.B, fn func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.NNZ()), "ns/nnz")
	}
	frame := shardFrame(x, 0, rg, nil)
	b.Run("encode-in-place", func(b *testing.B) {
		perNNZ(b, func() { frame = shardFrame(x, 0, rg, nil) })
	})
	sh := materialise(x, 0, rg)
	b.Run("encode-materialised", func(b *testing.B) {
		perNNZ(b, func() { frame = EncodeShard(sh) })
	})
	b.Run("decode", func(b *testing.B) {
		perNNZ(b, func() {
			if _, err := DecodeShard(frame); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkFactorCodec reports MB/s and allocations per frame for a full
// factor and for a delta carrying a quarter of its rows. An encode is one
// allocation, the frame; a decode is the slab plus the structs around it.
func BenchmarkFactorCodec(b *testing.B) {
	f := &Factor{Mode: 0, M: cpals.InitFactor(1, 0, 40000, 16)}
	fd := &FactorDelta{Mode: 0, Cols: 16}
	for i := 0; i < f.M.Rows; i += 4 {
		fd.Indices = append(fd.Indices, i)
		fd.Rows = append(fd.Rows, f.M.Row(i)...)
	}
	run := func(name string, floats int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 * floats))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	full, delta := EncodeFactor(f), EncodeFactorDelta(fd)
	run("factor-encode", len(f.M.Data), func() { full = EncodeFactor(f) })
	run("factor-decode", len(f.M.Data), func() {
		if _, err := DecodeFactor(full); err != nil {
			b.Fatal(err)
		}
	})
	run("delta-encode", len(fd.Rows), func() { delta = EncodeFactorDelta(fd) })
	run("delta-decode", len(fd.Rows), func() {
		if _, err := DecodeFactorDelta(delta); err != nil {
			b.Fatal(err)
		}
	})
}
