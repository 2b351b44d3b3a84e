package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// Compact binary wire codec. Framing is a 9-byte header — type byte,
// big-endian uint32 payload length, big-endian CRC32-C over the type byte
// and payload — followed by the payload. Payload encodings are fixed-width
// big-endian; float64s travel as IEEE-754 bits. Every encoder computes its
// payload size first and writes each byte once, into a buffer that never
// grows; float64 runs are converted as one slab. Every decoder is total:
// malformed input of any kind returns a *DecodeError, never a panic, and
// element counts are validated against the remaining payload BEFORE
// allocation so a corrupt length prefix cannot force a huge allocation.
// A checksum mismatch is a *CorruptFrameError, distinct from *DecodeError,
// so callers can tell line corruption from a peer speaking garbage; both
// end the connection — corruption is never silently absorbed.

// maxFrame bounds a frame payload (1 GiB). Shards of real tensors are the
// largest messages; a tensor bigger than this must be cut into more
// workers, not a bigger frame.
const maxFrame = 1 << 30

// frameHeaderLen is the wire header size: type(1) + length(4) + crc32c(4).
const frameHeaderLen = 9

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC covers the type byte and the payload. The length field is not
// covered directly, but a corrupted length makes the receiver checksum a
// different byte span, so it still fails the CRC (or the read blocks and
// the heartbeat kills the connection).
func frameCRC(t MsgType, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{byte(t)})
	return crc32.Update(crc, castagnoli, payload)
}

// WriteFrame writes one frame: type byte, big-endian length, CRC32-C,
// payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:], frameCRC(t, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. Transport errors pass through; a length
// beyond maxFrame or an unknown type byte yields a *DecodeError; a
// checksum mismatch yields a *CorruptFrameError.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(hdr[0])
	if t < MsgHello || t > MsgFactorDelta {
		return 0, nil, &DecodeError{Msg: fmt.Sprintf("unknown frame type %d", hdr[0])}
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, &DecodeError{Msg: fmt.Sprintf("frame length %d exceeds limit %d", n, maxFrame)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(hdr[5:])
	if got := frameCRC(t, payload); got != want {
		return 0, nil, &CorruptFrameError{Type: t, Want: want, Got: got}
	}
	return t, payload, nil
}

// --- append-style encoders ---

func appendU8(b []byte, v uint8) []byte { return append(b, v) }
func appendU16(b []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(b, v)
}
func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// appendF64s appends a float64 slab: one capacity check (a no-op when the
// caller sized b), then a conversion loop with nothing else in it.
func appendF64s(b []byte, vs []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(vs))[:n+8*len(vs)]
	dst := b[n:]
	for _, v := range vs {
		binary.BigEndian.PutUint64(dst, math.Float64bits(v))
		dst = dst[8:]
	}
	return b
}

// denseSize is the encoded size of appendDense.
func denseSize(m *la.Dense) int { return 8 + 8*len(m.Data) }

// appendDense encodes rows, cols, then the row-major data.
func appendDense(b []byte, m *la.Dense) []byte {
	b = appendU32(b, uint32(m.Rows))
	b = appendU32(b, uint32(m.Cols))
	return appendF64s(b, m.Data)
}

// uvarintLen is the encoded size of v as a varint, the only variable-width
// element in the protocol (shard payloads are index-heavy and dominated by
// small values).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// --- sticky-error decoder ---

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = &DecodeError{Msg: msg, Offset: d.off}
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.fail(fmt.Sprintf("truncated: need %d bytes, have %d", n, len(d.b)-d.off))
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// f64s fills dst from the next 8*len(dst) bytes behind one bounds check.
func (d *dec) f64s(dst []float64) {
	if !d.need(8 * len(dst)) {
		return
	}
	src := d.b[d.off:]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src))
		src = src[8:]
	}
	d.off += 8 * len(dst)
}

// uvarint decodes one varint, bounding it to maxFrame so downstream int
// conversions cannot overflow.
func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if v > maxFrame {
		d.fail(fmt.Sprintf("varint %d out of range", v))
		return 0
	}
	d.off += n
	return v
}

// count validates an element count against the remaining payload, given a
// fixed per-element width, before the caller allocates.
func (d *dec) count(n uint32, elemBytes int, what string) int {
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(elemBytes) > int64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("%s count %d exceeds remaining payload", what, n))
		return 0
	}
	return int(n)
}

func (d *dec) dense() *la.Dense {
	rows := d.u32()
	cols := d.u32()
	if d.err != nil {
		return nil
	}
	if rows > maxFrame/8 || cols > maxFrame/8 {
		d.fail(fmt.Sprintf("dense dimensions %dx%d out of range", rows, cols))
		return nil
	}
	total := int64(rows) * int64(cols)
	if total*8 > int64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("dense %dx%d exceeds remaining payload", rows, cols))
		return nil
	}
	m := la.NewDense(int(rows), int(cols))
	d.f64s(m.Data)
	return m
}

// done enforces that the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &DecodeError{Msg: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off), Offset: d.off}
	}
	return nil
}

// --- message codecs ---

// EncodeHello serializes a handshake.
func EncodeHello(h *Hello) []byte {
	b := appendU16(make([]byte, 0, 10+4*len(h.Dims)), h.Version)
	b = appendU8(b, h.Flags)
	b = appendU8(b, uint8(h.Order))
	b = appendU16(b, uint16(h.Rank))
	b = appendU16(b, uint16(h.Worker))
	b = appendU16(b, uint16(h.Workers))
	for _, dim := range h.Dims {
		b = appendU32(b, uint32(dim))
	}
	return b
}

// DecodeHello parses a handshake.
func DecodeHello(b []byte) (*Hello, error) {
	d := &dec{b: b}
	h := &Hello{
		Version: d.u16(),
		Flags:   d.u8(),
		Order:   int(d.u8()),
		Rank:    int(d.u16()),
		Worker:  int(d.u16()),
		Workers: int(d.u16()),
	}
	if d.err == nil && (h.Order < 1 || h.Order > tensor.MaxOrder) {
		d.fail(fmt.Sprintf("order %d out of range [1,%d]", h.Order, tensor.MaxOrder))
	}
	if d.err == nil && h.Rank < 1 {
		d.fail("rank must be positive")
	}
	n := 0
	if d.err == nil {
		n = h.Order
	}
	h.Dims = make([]int, 0, n)
	for i := 0; i < n; i++ {
		dim := d.u32()
		if d.err == nil && dim == 0 {
			d.fail(fmt.Sprintf("mode %d has size 0", i))
		}
		h.Dims = append(h.Dims, int(dim))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// EncodeShard serializes a materialised shard: the one shard encoder with
// no permutation, no dims and no touched-row bookkeeping.
func EncodeShard(s *Shard) []byte { return encodeShard(s, nil, nil, nil) }

// encodeShard serializes a nonzero shard in the row-grouped varint format:
// header, then one group per distinct output row — varint row delta, varint
// entry count, then per entry the OTHER modes' indices as varints plus the
// float64 value. Grouping drops the 4-byte mode index every entry repeats,
// and varints shrink the remaining indices; on real tensors this roughly
// halves shard bytes versus the v1 fixed-width layout while the decoded
// entry order — ascending row, original storage order within a row — is
// exactly the stable ModeIndex Perm order the kernels require.
//
// The nonzeros are s.Entries[perm[0]], s.Entries[perm[1]], ... when perm is
// non-nil (a slice of the mode's ModeIndex.Perm over the coordinator's whole
// tensor — nothing is copied out first) and s.Entries in order otherwise;
// either way they must ascend by row within [RowLo, RowHi), and a violation
// is an internal invariant failure, not a wire condition. The frame is
// written once into a buffer sized from dims — every index along mode m is
// below dims[m], which building the mode indexes has already relied on — or
// from the widest uint32 varint when dims is nil. When touched is non-nil,
// the same pass sets touched[m] bit i for every index i it writes along a
// mode m other than the shard's: the factor rows this shard's MTTKRP reads.
func encodeShard(s *Shard, perm []int32, dims []int, touched []bitset) []byte {
	entries, mode := s.Entries, s.Mode
	n := len(entries)
	if perm != nil {
		n = len(perm)
	}
	at := func(i int) *tensor.Entry {
		if perm != nil {
			i = int(perm[i])
		}
		return &entries[i]
	}
	var others [tensor.MaxOrder - 1]int
	nOther, perNNZ := 0, 8
	for m := 0; m < s.Order; m++ {
		if m == mode {
			continue
		}
		others[nOther] = m
		nOther++
		if dims != nil {
			perNNZ += uvarintLen(uint64(dims[m] - 1))
		} else {
			perNNZ += binary.MaxVarintLen32
		}
	}
	groups := max(0, min(n, s.RowHi-s.RowLo))
	b := make([]byte, 14+n*perNNZ+groups*(uvarintLen(uint64(s.RowHi-s.RowLo))+uvarintLen(uint64(n))))
	b[0], b[1] = uint8(mode), uint8(s.Order)
	binary.BigEndian.PutUint32(b[2:], uint32(s.RowLo))
	binary.BigEndian.PutUint32(b[6:], uint32(s.RowHi))
	binary.BigEndian.PutUint32(b[10:], uint32(n))
	off := 14
	prevRow := s.RowLo - 1 // first group's delta is row-RowLo+1 .. keeps deltas >= 1
	for i := 0; i < n; {
		row := int(at(i).Idx[mode])
		if row <= prevRow || row >= s.RowHi {
			panic(fmt.Sprintf("dist: shard entries not in ascending row order (row %d after %d)", row, prevRow))
		}
		j := i + 1
		for j < n && int(at(j).Idx[mode]) == row {
			j++
		}
		off += binary.PutUvarint(b[off:], uint64(row-prevRow))
		off += binary.PutUvarint(b[off:], uint64(j-i))
		for ; i < j; i++ {
			e := at(i)
			for _, m := range others[:nOther] {
				x := e.Idx[m]
				off += binary.PutUvarint(b[off:], uint64(x))
				if touched != nil {
					touched[m].set(int(x))
				}
			}
			binary.BigEndian.PutUint64(b[off:], math.Float64bits(e.Val))
			off += 8
		}
		prevRow = row
	}
	return b[:off]
}

// DecodeShard parses a nonzero shard into columns, validating the entry
// count against the payload length (before anything is allocated), row
// deltas against [RowLo, RowHi), and group counts against the declared
// total. The largest index along each mode is recorded in the same pass.
func DecodeShard(b []byte) (*ShardColumns, error) {
	d := &dec{b: b}
	s := &ShardColumns{
		Mode:  int(d.u8()),
		Order: int(d.u8()),
		RowLo: int(d.u32()),
		RowHi: int(d.u32()),
	}
	if d.err == nil && (s.Order < 1 || s.Order > tensor.MaxOrder) {
		d.fail(fmt.Sprintf("order %d out of range [1,%d]", s.Order, tensor.MaxOrder))
	}
	if d.err == nil && s.Mode >= s.Order {
		d.fail(fmt.Sprintf("mode %d out of range for order %d", s.Mode, s.Order))
	}
	if d.err == nil && s.RowHi < s.RowLo {
		d.fail(fmt.Sprintf("row range [%d,%d) inverted", s.RowLo, s.RowHi))
	}
	// Tightest guaranteed wire width per entry: one varint byte per other
	// mode plus the 8-byte value.
	nnz := d.count(d.u32(), s.Order-1+8, "shard entry")
	if d.err != nil {
		return nil, d.err
	}
	s.Rows, s.Vals = make([]uint32, nnz), make([]float64, nnz)
	s.Cols = make([][]uint32, s.Order-1)
	var maxIdx [tensor.MaxOrder - 1]uint32
	for c := range s.Cols {
		s.Cols[c] = make([]uint32, nnz)
	}
	row := s.RowLo - 1
	for i := 0; i < nnz && d.err == nil; {
		row += int(d.uvarint())
		if d.err == nil && (row < s.RowLo || row >= s.RowHi) {
			d.fail(fmt.Sprintf("shard row %d outside [%d,%d)", row, s.RowLo, s.RowHi))
			break
		}
		cnt := int(d.uvarint())
		if d.err == nil && (cnt < 1 || cnt > nnz-i) {
			d.fail(fmt.Sprintf("shard row group count %d out of range", cnt))
			break
		}
		// The per-nonzero reads skip the sticky decoder; a read that fails
		// is repeated through it at the same offset, which words the error.
		off := d.off
		for end := i + cnt; i < end; i++ {
			for c, col := range s.Cols {
				x, n := binary.Uvarint(b[off:])
				if n <= 0 || x > maxFrame {
					d.off = off
					d.uvarint()
					return nil, d.err
				}
				off += n
				col[i] = uint32(x)
				maxIdx[c] = max(maxIdx[c], uint32(x))
			}
			if len(b)-off < 8 {
				d.off = off
				d.u64()
				return nil, d.err
			}
			s.Rows[i], s.Vals[i] = uint32(row), math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
			off += 8
		}
		d.off = off
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if nnz > 0 {
		s.MaxIdx[s.Mode] = s.Rows[nnz-1] // rows ascend
	}
	for c, m := range s.others() {
		s.MaxIdx[m] = maxIdx[c]
	}
	return s, nil
}

// EncodeFactor serializes a factor broadcast.
func EncodeFactor(f *Factor) []byte {
	b := appendU8(make([]byte, 0, 1+denseSize(f.M)), uint8(f.Mode))
	return appendDense(b, f.M)
}

// DecodeFactor parses a factor broadcast.
func DecodeFactor(b []byte) (*Factor, error) {
	d := &dec{b: b}
	f := &Factor{Mode: int(d.u8())}
	f.M = d.dense()
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeFactorDelta serializes a changed-rows factor update: mode, column
// count, row count, the strictly ascending row indices, then the row data.
func EncodeFactorDelta(f *FactorDelta) []byte {
	b := appendU8(make([]byte, 0, 7+4*len(f.Indices)+8*len(f.Rows)), uint8(f.Mode))
	b = appendU16(b, uint16(f.Cols))
	b = appendU32(b, uint32(len(f.Indices)))
	for _, idx := range f.Indices {
		b = appendU32(b, uint32(idx))
	}
	return appendF64s(b, f.Rows)
}

// DecodeFactorDelta parses a changed-rows factor update, validating the
// row count against the payload and that the indices strictly ascend. The
// receiver still has to bound the indices against its resident factor —
// the frame does not carry the matrix shape.
func DecodeFactorDelta(b []byte) (*FactorDelta, error) {
	d := &dec{b: b}
	f := &FactorDelta{
		Mode: int(d.u8()),
		Cols: int(d.u16()),
	}
	if d.err == nil && f.Cols < 1 {
		d.fail("factor delta with no columns")
	}
	n := d.count(d.u32(), 4+8*f.Cols, "factor delta row")
	f.Indices = make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx := int(d.u32())
		if d.err == nil && len(f.Indices) > 0 && idx <= f.Indices[len(f.Indices)-1] {
			d.fail(fmt.Sprintf("factor delta indices not ascending at %d", idx))
		}
		f.Indices = append(f.Indices, idx)
	}
	if d.err == nil {
		f.Rows = make([]float64, n*f.Cols)
		d.f64s(f.Rows)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeTask serializes a task descriptor.
func EncodeTask(t *Task) []byte {
	b := appendU64(make([]byte, 0, 18), t.ID)
	b = appendU8(b, uint8(t.Kind))
	b = appendU8(b, uint8(t.Mode))
	b = appendU32(b, uint32(t.RowLo))
	return appendU32(b, uint32(t.RowHi))
}

// DecodeTask parses a task descriptor, refusing every kind but
// TaskPartialMTTKRP.
func DecodeTask(b []byte) (*Task, error) {
	d := &dec{b: b}
	t := &Task{
		ID:    d.u64(),
		Kind:  TaskKind(d.u8()),
		Mode:  int(d.u8()),
		RowLo: int(d.u32()),
		RowHi: int(d.u32()),
	}
	if d.err == nil && t.Kind != TaskPartialMTTKRP {
		d.fail(fmt.Sprintf("unknown task kind %d", uint8(t.Kind)))
	}
	if d.err == nil && t.RowHi < t.RowLo {
		d.fail("inverted task range")
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeResult serializes a task result.
func EncodeResult(r *Result) []byte {
	b := appendU64(make([]byte, 0, 13+denseSize(r.Rows)), r.ID)
	b = appendU8(b, uint8(r.Kind))
	b = appendU32(b, uint32(r.RowLo))
	return appendDense(b, r.Rows)
}

// DecodeResult parses a task result, refusing every kind but
// TaskPartialMTTKRP.
func DecodeResult(b []byte) (*Result, error) {
	d := &dec{b: b}
	r := &Result{
		ID:    d.u64(),
		Kind:  TaskKind(d.u8()),
		RowLo: int(d.u32()),
	}
	if d.err == nil && r.Kind != TaskPartialMTTKRP {
		d.fail(fmt.Sprintf("unknown task kind %d", uint8(r.Kind)))
	}
	r.Rows = d.dense()
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeErr serializes a worker task failure.
func EncodeErr(e *RemoteError) []byte {
	b := appendU64(make([]byte, 0, 12+len(e.Msg)), e.TaskID)
	b = appendU32(b, uint32(len(e.Msg)))
	return append(b, e.Msg...)
}

// DecodeErr parses a worker task failure.
func DecodeErr(b []byte) (*RemoteError, error) {
	d := &dec{b: b}
	e := &RemoteError{TaskID: d.u64()}
	n := d.count(d.u32(), 1, "error message")
	if d.err == nil {
		e.Msg = string(d.b[d.off : d.off+n])
		d.off += n
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return e, nil
}
