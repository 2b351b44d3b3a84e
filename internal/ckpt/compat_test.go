package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/ntf"
	"cstf/internal/tensor"
)

// saturatedNTFState is NTFState as earlier versions wrote it, with the
// per-mode saturation bitmaps (row-major Dims[n] x Rank).
type saturatedNTFState struct {
	InnerIters int
	Saturated  [][]byte
}

// saturatedFile is File as earlier versions wrote it.
type saturatedFile struct {
	Algorithm string
	Rank      int
	Seed      uint64
	Iter      int
	Dims      []int
	Lambda    []float64
	Fits      []float64
	Factors   [][]float64
	Workers   int
	RALS      *ckpt.RALSState
	NTF       *saturatedNTFState
}

// writeSaturated frames f as the CSTFCKP1 format does: magic, the CRC32-C
// of the gob payload, the payload.
func writeSaturated(t *testing.T, path string, f *saturatedFile) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(f); err != nil {
		t.Fatal(err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	data := append([]byte("CSTFCKP1"), crc[:]...)
	if err := os.WriteFile(path, append(data, payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// An ncp checkpoint that still carries saturation bitmaps loads, and the
// solve resumed from it follows the uninterrupted run bit for bit.
func TestNCPCheckpointWithSaturationBitmapsResumes(t *testing.T) {
	x := tensor.GenLowRank(7, 3000, 3, 0.05, 40, 30, 20)
	full := ntf.Options{Options: cpals.Options{Rank: 3, MaxIters: 6, Seed: 11}, InnerIters: 2}
	want, err := ntf.Solve(x, full)
	if err != nil {
		t.Fatal(err)
	}

	var cp *ckpt.File
	head := full
	head.MaxIters, head.CheckpointEvery = 4, 4
	head.OnCheckpoint = func(f *ckpt.File) error { cp = f; return nil }
	if _, err := ntf.Solve(x, head); err != nil {
		t.Fatal(err)
	}
	old := &saturatedFile{Algorithm: "ncp", Rank: cp.Rank, Seed: cp.Seed, Iter: cp.Iter, Dims: cp.Dims,
		Lambda: cp.Lambda, Fits: cp.Fits, Factors: cp.Factors,
		NTF: &saturatedNTFState{InnerIters: cp.NTF.InnerIters}}
	for _, data := range cp.Factors {
		sat := make([]byte, len(data))
		for i, v := range data {
			if v == 0 {
				sat[i] = 1
			}
		}
		old.NTF.Saturated = append(old.NTF.Saturated, sat)
	}
	path := filepath.Join(t.TempDir(), "ncp.ckpt")
	writeSaturated(t, path, old)

	f, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NTF == nil || f.NTF.InnerIters != 2 {
		t.Fatalf("NTF state %+v, want inner pass count 2", f.NTF)
	}
	tail := full
	tail.Restore(f)
	tail.InitState = f.NTF
	got, err := ntf.Solve(x, tail)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	if !same(got.Lambda, want.Lambda) || !same(got.Fits, want.Fits) {
		t.Fatalf("resumed lambda/fits differ from the uninterrupted run")
	}
	for n := range want.Factors {
		if !same(got.Factors[n].Data, want.Factors[n].Data) {
			t.Fatalf("resumed factor %d differs from the uninterrupted run", n)
		}
	}
}
