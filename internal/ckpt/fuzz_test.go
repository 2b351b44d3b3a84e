package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"testing"
)

// frame prefixes a payload with the magic and its valid checksum: the bytes
// Write would put on disk for it.
func frame(payload []byte) []byte {
	data := make([]byte, headerLen, headerLen+len(payload))
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[len(magic):], crc32.Checksum(payload, castagnoli))
	return append(data, payload...)
}

// FuzzRead feeds the decoder framed payloads, so every input gets past the
// header check to the gob decoder and Validate, as a file the publisher or
// a server reads at start-up would. Each must come back as a *CorruptError,
// an *InvalidError or a file that validates, and none may panic.
func FuzzRead(f *testing.F) {
	rals, ntf := sample(), sample()
	rals.RALS = &RALSState{ResampleEvery: 2, SampleCounts: []int{5, 5}, Unnorm: rals.Factors}
	ntf.NTF = &NTFState{InnerIters: 3}
	for _, cp := range []*File{sample(), rals, ntf} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decode("fuzz", frame(payload))
		if err == nil {
			err = cp.Validate("fuzz")
		}
		var corrupt *CorruptError
		var invalid *InvalidError
		if err != nil && !errors.As(err, &corrupt) && !errors.As(err, &invalid) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
	})
}
