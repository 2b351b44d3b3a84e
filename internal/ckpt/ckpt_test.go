package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sample() *File {
	return &File{
		Algorithm: "serial",
		Rank:      2,
		Seed:      7,
		Iter:      3,
		Dims:      []int{4, 3},
		Lambda:    []float64{2, 1},
		Fits:      []float64{0.1, 0.2, 0.3},
		Factors: [][]float64{
			{1, 2, 3, 4, 5, 6, 7, 8},
			{1, 0, 0, 1, 1, 1},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	want := sample()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != want.Algorithm || got.Rank != want.Rank || got.Iter != want.Iter {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if len(got.Factors) != 2 || got.Factors[0][7] != 8 || got.Factors[1][5] != 1 {
		t.Fatalf("factors corrupted: %+v", got.Factors)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	// Overwrite leaves no temp file behind and the file stays readable.
	if err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMismatches(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*File)
	}{
		{"bad rank", func(f *File) { f.Rank = 0 }},
		{"no dims", func(f *File) { f.Dims = nil }},
		{"factor count", func(f *File) { f.Factors = f.Factors[:1] }},
		{"lambda length", func(f *File) { f.Lambda = f.Lambda[:1] }},
		{"factor size", func(f *File) { f.Factors[0] = f.Factors[0][:3] }},
		{"iter", func(f *File) { f.Iter = 0 }},
	}
	for _, c := range cases {
		f := sample()
		c.mut(f)
		err := f.Validate("x.ckpt")
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Errorf("%s: want *InvalidError, got %v", c.name, err)
		}
	}
}

func TestReadMissingAndCorrupt(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("want error for missing file")
	}
	path := filepath.Join(t.TempDir(), "junk.ckpt")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("want decode error for corrupt file")
	}
}

// TestChecksumDetectsCorruption flips each byte of a written checkpoint in
// turn: every flip must surface as a typed *CorruptError (checksum or
// magic/gob failure), never as a silently decoded wrong record.
func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(orig[:len(magic)]) != magic {
		t.Fatalf("written file lacks magic %q", magic)
	}
	for i := headerLen; i < len(orig); i++ {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		bad := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(bad)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d flipped: want *CorruptError, got %v", i, err)
		}
	}
}

// TestTornWriteDetected truncates a checkpoint at several points — the torn
// tail a crashed writer (without the rename discipline) would leave — and
// expects a typed *CorruptError every time.
func TestTornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, len(magic), headerLen, headerLen + 1, len(orig) / 2, len(orig) - 1} {
		torn := filepath.Join(dir, "torn.ckpt")
		if err := os.WriteFile(torn, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(torn)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncated to %d bytes: want *CorruptError, got %v", n, err)
		}
	}
}

// TestChecksumlessFileIsCorrupt writes a raw gob stream — the format of
// checkpoints produced before the checksum header existed — and expects a
// typed *CorruptError, the error serve.Reload falls back on.
func TestChecksumlessFileIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sample()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("checksum-less file: want *CorruptError, got %v", err)
	}
}

// TestVersionHelpers exercises VersionPath/ListVersions over a retention
// directory with gaps and stray entries.
func TestVersionHelpers(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "m.ckpt")
	if err := Write(base, sample()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 1, 7} {
		if err := Write(VersionPath(base, n), sample()); err != nil {
			t.Fatal(err)
		}
	}
	// Strays that must be ignored.
	for _, name := range []string{"m.ckpt.vx", "m.ckpt.v-2", "other.ckpt.v1"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := ListVersions(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 7 {
		t.Fatalf("versions %v, want [1 3 7]", vs)
	}
	if vs, err := ListVersions(filepath.Join(dir, "missing", "m.ckpt")); err != nil || vs != nil {
		t.Fatalf("missing dir: %v %v", vs, err)
	}
}
