package tensor

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// inRange fails t unless every stored index of x is below its mode size.
func inRange(t *testing.T, x *COO) {
	t.Helper()
	for i, e := range x.Entries {
		for m, d := range x.Dims {
			if uint64(e.Idx[m]) >= uint64(d) {
				t.Fatalf("entry %d: index %d out of range for mode %d of size %d", i, e.Idx[m], m, d)
			}
		}
	}
}

// FuzzReadTNS feeds the .tns parser arbitrary text with inferred mode
// sizes: each input must come back as an error or as a tensor whose every
// index lies inside its mode, and none may panic.
func FuzzReadTNS(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTNS(&buf, GenUniform(1, 20, 4, 5, 6)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# a comment\n\n1 1 1 2.5\n3 2 4 -1\n"))
	f.Add([]byte("4294967295 1 7e300\n"))
	f.Add([]byte("0 1 1 5\n"))
	f.Add([]byte("1 2 3 4 5 extra\n1 2 3\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		x, err := ReadTNS(bytes.NewReader(in), nil)
		if err == nil {
			inRange(t, x)
		}
	})
}

// FuzzReadBinary feeds the CSTFBIN1 decoder arbitrary bytes behind a valid
// magic: each input must come back as an error or as a tensor whose every
// index lies inside its mode, and none may panic or allocate by an unread
// header count.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, GenUniform(1, 20, 4, 5, 6)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[len(binMagic):])
	f.Add(buf.Bytes()[len(binMagic) : buf.Len()/2])
	f.Add(hugeCountHeader()[len(binMagic):])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		x, err := ReadBinary(bytes.NewReader(append(binMagic[:], body...)))
		if err == nil {
			inRange(t, x)
		}
	})
}

// hugeCountHeader is a complete 28-byte order-1 header that announces
// 1<<62 entries and carries none.
func hugeCountHeader() []byte {
	b := append([]byte(nil), binMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 10)
	return binary.LittleEndian.AppendUint64(b, 1<<62)
}

func TestBinaryHugeCountIsAnError(t *testing.T) {
	h := hugeCountHeader()
	if len(h) != 28 {
		t.Fatalf("header is %d bytes, want 28", len(h))
	}
	if _, err := ReadBinary(bytes.NewReader(h)); err == nil {
		t.Fatal("a header announcing 1<<62 absent entries must be rejected")
	}
}

func TestBinaryModeSizeTwoToThe32(t *testing.T) {
	x := New(1<<32, 3)
	x.Entries = []Entry{{Idx: [MaxOrder]uint32{1<<32 - 1, 2}, Val: 1.5}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("mode size 1<<32 holds every uint32 index: %v", err)
	}
	if y.Dims[0] != 1<<32 || y.NNZ() != 1 || y.Entries[0] != x.Entries[0] {
		t.Fatalf("read back %v %+v", y.Dims, y.Entries)
	}
}
