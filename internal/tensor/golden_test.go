package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// tensorHash is FNV-1a over Dims and, per stored entry in storage order, the
// first Order indices and the value's bit pattern.
func tensorHash(t *COO) string {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range t.Dims {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for i := range t.Entries {
		e := &t.Entries[i]
		for m := 0; m < t.Order(); m++ {
			binary.LittleEndian.PutUint32(b[:4], e.Idx[m])
			h.Write(b[:4])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Val))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorGoldenHash pins every generator's output bit for bit: the
// coordinates, their storage order after DedupSum, and every summed value.
// The hashes were captured before the generators drew in parallel chunks
// and DedupSum sorted packed keys; any later set-up work must reproduce
// them. The cases cover several draw chunks, duplicate groups of three and
// more (tiny dims), a key wider than 64 bits (order 4) and one wider than
// 128 (order 8).
func TestGeneratorGoldenHash(t *testing.T) {
	wide8 := []int{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20}
	cases := []struct {
		name string
		gen  func() *COO
		want string
	}{
		{"zipf3", func() *COO { return GenZipf(1, 200_000, 0.7, 40000, 30000, 20000) }, "fa49e943c3f0fb13"},
		{"zipf3-dups", func() *COO { return GenZipf(3, 50_000, 0.9, 30, 20, 10) }, "596ded35d703f7e9"},
		{"zipf4-wide", func() *COO { return GenZipf(5, 30_000, 0.8, 300000, 200000, 100000, 50000) }, "05a1ac5d60a12ad0"},
		{"uniform3", func() *COO { return GenUniform(2, 150_000, 500, 400, 300) }, "1c8a09309490381f"},
		{"uniform3-dups", func() *COO { return GenUniform(4, 20_000, 6, 5, 4) }, "04cf9ca9902feea8"},
		{"uniform1", func() *COO { return GenUniform(7, 1000, 50) }, "8aff456bd68044fe"},
		{"uniform8-wide", func() *COO { return GenUniform(6, 5000, wide8...) }, "4bcb944e41b63b16"},
		{"recsys", func() *COO { return GenRecsys(8, 30_000, 600, 400, 6, 4, 0.05) }, "b515d22d12f99788"},
		{"lowrank4", func() *COO { return GenLowRank(9, 5000, 4, 0.1, 1200, 800, 600, 400) }, "bf10b5409d6770f9"},
		{"lowrank3-dups", func() *COO { return GenLowRank(12, 3000, 2, 0.1, 8, 7, 6) }, "a12975324ab9a75b"},
		{"blocksparse", func() *COO { return GenBlockSparse(10, 20_000, 3, 4, 0.05, 60, 50, 40) }, "2f2cf05001d84ad4"},
		{"lowrankdense", func() *COO { return GenLowRankDense(11, 3, 0.1, 12, 10, 8) }, "0e94bcf0a3759e41"},
	}
	for _, c := range cases {
		if got := tensorHash(c.gen()); got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}
