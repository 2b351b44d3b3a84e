// Package ckpt defines the on-disk checkpoint schema shared by everything
// that produces or consumes trained CP factors: the solver writes iteration
// snapshots through it, DecomposeResume restarts from them, cstf.LoadFactors
// exposes them publicly, and internal/serve loads them into a model server.
// Keeping the schema in one place means no consumer re-parses the gob layout
// privately.
//
// Files are written atomically and durably: the record goes to a temp file,
// the temp file is fsynced, renamed over the target, and the parent
// directory is fsynced — so a crash at any instant leaves either the old
// complete file or the new complete file, never a hybrid. On top of that
// the current format ("CSTFCKP1") carries a CRC32-C of the payload, so
// damage that slips past the rename discipline (torn sectors, bit rot,
// truncation by a failing disk) is detected at read time as a typed
// *CorruptError instead of being decoded into silently wrong factors. A
// file without the header — including the checksum-less format of earlier
// versions — is corrupt too; serve.Reload answers that by falling back to a
// retained version.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies the checksummed checkpoint format: 8 magic bytes, a
// 4-byte little-endian CRC32-C of the gob payload, then the payload.
const magic = "CSTFCKP1"

// headerLen is the byte length of the magic + checksum prefix.
const headerLen = len(magic) + 4

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64), matching the frame checksums of the distributed runtime.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the on-disk checkpoint record. The exported field NAMES are the
// wire contract — gob matches fields by name, so renaming any of them would
// break decoding of previously written checkpoints. (Adding fields is safe:
// gob ignores names the decoder does not know and zeroes names the encoder
// did not send.) The solvers produce it through cpals.Options.OnCheckpoint
// and read it back through cpals.Options.Restore and their own state
// (rals.Options.InitState; the nonnegative rule's pass count, NTF).
type File struct {
	Algorithm string
	Rank      int
	Seed      uint64
	Iter      int // completed ALS iterations (the StartIter to resume with)
	Dims      []int
	Lambda    []float64
	Fits      []float64   // fit after each of the Iter completed iterations
	Factors   [][]float64 // one row-major matrix per mode, Dims[n] x Rank

	// Workers records how many distributed workers produced the snapshot
	// (0: serial or unknown — files from before the field existed decode
	// to 0). Informational: resume does NOT need it, because the dist
	// partition is a pure function of (tensor, worker count) and ALS is
	// deterministic, so a checkpoint from W workers resumes bitwise
	// identically on any fleet size — or locally.
	Workers int

	// RALS carries the randomized-ALS sampler state for algorithm "rals"
	// checkpoints; nil for every other algorithm (a rals resume without it
	// is rejected by the rals solver).
	RALS *RALSState

	// NTF carries the nonnegative-CP solver state for algorithm "ncp"
	// checkpoints; nil for every other algorithm.
	NTF *NTFState
}

// RALSState is the extra solver state a rals checkpoint needs for a bitwise
// resume: the UNNORMALIZED factor matrices (normalized factors alone lose
// the per-row scale kept rows live at) plus the resolved sampling schedule,
// so the resumed run redraws exactly what the uninterrupted run drew.
type RALSState struct {
	ResampleEvery int
	SampleCounts  []int       // resolved per-mode sample budgets
	Unnorm        [][]float64 // one row-major matrix per mode, Dims[n] x Rank
}

// NTFState is the extra solver state an ncp checkpoint carries: the inner
// coordinate-descent pass count the run was configured with.
type NTFState struct {
	InnerIters int
}

// InvalidError reports a checkpoint whose fields are structurally
// inconsistent (factor count vs dims, factor sizes vs rank, ...).
type InvalidError struct {
	Path   string
	Reason string
}

func (e *InvalidError) Error() string {
	return fmt.Sprintf("ckpt: invalid checkpoint %s: %s", e.Path, e.Reason)
}

// CorruptError reports a checkpoint file whose bytes are damaged — torn
// write, truncation, checksum mismatch, or undecodable gob. It is a
// distinct type from InvalidError (which means the bytes decoded fine but
// the record is inconsistent) so recovery layers can react differently:
// corruption triggers fallback to an older retained version, invalidity is
// a producer bug.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// Validate checks the record's internal consistency. path is only used to
// label the returned *InvalidError.
func (f *File) Validate(path string) error {
	fail := func(format string, args ...any) error {
		return &InvalidError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
	if f.Rank <= 0 {
		return fail("rank %d", f.Rank)
	}
	if len(f.Dims) == 0 {
		return fail("no dims")
	}
	for n, d := range f.Dims {
		if d <= 0 {
			return fail("mode %d has dim %d", n, d)
		}
	}
	if len(f.Factors) != len(f.Dims) {
		return fail("%d factor matrices for %d modes", len(f.Factors), len(f.Dims))
	}
	if len(f.Lambda) != f.Rank {
		return fail("lambda length %d != rank %d", len(f.Lambda), f.Rank)
	}
	if f.Iter <= 0 {
		return fail("iteration count %d", f.Iter)
	}
	for n, data := range f.Factors {
		if len(data) != f.Dims[n]*f.Rank {
			return fail("factor %d has %d values, want %d*%d", n, len(data), f.Dims[n], f.Rank)
		}
	}
	if f.RALS != nil {
		if err := f.RALS.Validate(f.Dims, f.Rank); err != nil {
			return fail("%v", err)
		}
	}
	if f.NTF != nil {
		if err := f.NTF.Validate(); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// Validate checks the state against the model shape it belongs to.
func (st *RALSState) Validate(dims []int, rank int) error {
	if st.ResampleEvery <= 0 {
		return fmt.Errorf("rals resample cadence %d", st.ResampleEvery)
	}
	if len(st.SampleCounts) != len(dims) {
		return fmt.Errorf("%d rals sample counts for %d modes", len(st.SampleCounts), len(dims))
	}
	for m, s := range st.SampleCounts {
		if s <= 0 {
			return fmt.Errorf("rals mode %d sample count %d", m, s)
		}
	}
	if len(st.Unnorm) != len(dims) {
		return fmt.Errorf("%d rals unnormalized factors for %d modes", len(st.Unnorm), len(dims))
	}
	for n, data := range st.Unnorm {
		if len(data) != dims[n]*rank {
			return fmt.Errorf("rals unnormalized factor %d has %d values, want %d*%d", n, len(data), dims[n], rank)
		}
	}
	return nil
}

// Validate checks the inner pass count.
func (st *NTFState) Validate() error {
	if st.InnerIters <= 0 {
		return fmt.Errorf("ntf inner pass count %d", st.InnerIters)
	}
	return nil
}

// Write atomically and durably replaces path with the encoded record:
// temp file, fsync, rename, fsync of the parent directory. After Write
// returns, the checkpoint survives power loss; during Write, a reader of
// path only ever sees the previous complete file.
func Write(path string, f *File) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen)) // header placeholder
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	data := buf.Bytes()
	copy(data[:len(magic)], magic)
	binary.LittleEndian.PutUint32(data[len(magic):headerLen],
		crc32.Checksum(data[headerLen:], castagnoli))

	tmp := path + ".tmp"
	w, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: fsync: %w", err)
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Filesystems
// that refuse fsync on directories (some network mounts) are tolerated: the
// rename is still atomic, only its durability timing is weakened.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// Read decodes the record at path without validating it. Damaged bytes —
// a missing magic (which includes the checksum-less files of versions
// before the header existed), truncated header, checksum mismatch,
// undecodable gob — come back as a typed *CorruptError.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return decode(path, data)
}

// decode is Read over the file's bytes; path only labels the errors.
func decode(path string, data []byte) (*File, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("no %s magic", magic)}
	}
	if len(data) < headerLen {
		return nil, &CorruptError{Path: path, Reason: "truncated header"}
	}
	want := binary.LittleEndian.Uint32(data[len(magic):headerLen])
	payload := data[headerLen:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{Path: path,
			Reason: fmt.Sprintf("checksum %08x != %08x over %d payload bytes", got, want, len(payload))}
	}
	f := &File{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(f); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("gob: %v", err)}
	}
	return f, nil
}

// Load reads and validates the record at path.
func Load(path string) (*File, error) {
	f, err := Read(path)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(path); err != nil {
		return nil, err
	}
	return f, nil
}

// VersionPath names retained version n of the checkpoint at path:
// "path.v<n>". Retention layers (stream.Publisher) hardlink or copy each
// published generation there so a corrupted live file has intact ancestors
// to fall back to.
func VersionPath(path string, n int) string {
	return fmt.Sprintf("%s.v%d", path, n)
}

// ListVersions returns the retained version numbers present next to path,
// ascending. A missing directory or no versions is not an error.
func ListVersions(path string) ([]int, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	prefix := base + ".v"
	var vs []int
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		n, err := strconv.Atoi(e.Name()[len(prefix):])
		if err != nil || n < 0 {
			continue
		}
		vs = append(vs, n)
	}
	sort.Ints(vs)
	return vs, nil
}
