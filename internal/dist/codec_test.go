package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

func testShard() *Shard {
	s := &Shard{Mode: 1, Order: 3, RowLo: 4, RowHi: 9}
	// Ascending mode-1 rows with repeats — the stable Perm order the
	// row-grouped encoding requires.
	rows := []uint32{4, 4, 5, 6, 6, 6, 8}
	for i := 0; i < 7; i++ {
		var e tensor.Entry
		e.Idx[0] = uint32(i * 3)
		e.Idx[1] = rows[i]
		e.Idx[2] = uint32(i)
		e.Val = 0.5 + float64(i)
		s.Entries = append(s.Entries, e)
	}
	return s
}

func denseOf(rows, cols int, base float64) *la.Dense {
	m := la.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = base + float64(i)*0.25
	}
	return m
}

func TestCodecRoundTrips(t *testing.T) {
	hello := &Hello{Version: ProtocolVersion, Order: 3, Rank: 5, Dims: []int{10, 20, 30}, Worker: 2, Workers: 4}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || !reflect.DeepEqual(got, hello) {
		t.Fatalf("hello round trip: got %+v, err %v", got, err)
	}

	sh := testShard()
	got, err := DecodeShard(EncodeShard(sh))
	if err != nil || got.Mode != sh.Mode || got.Order != sh.Order || got.RowLo != sh.RowLo || got.RowHi != sh.RowHi ||
		!reflect.DeepEqual(got.Entries(), sh.Entries) {
		t.Fatalf("shard round trip: got %+v, err %v", got, err)
	}
	if got.MaxIdx != [tensor.MaxOrder]uint32{18, 8, 6} {
		t.Fatalf("shard round trip: max indices %v", got.MaxIdx)
	}

	f := &Factor{Mode: 2, M: denseOf(4, 3, 1)}
	if got, err := DecodeFactor(EncodeFactor(f)); err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("factor round trip: got %+v, err %v", got, err)
	}

	fd := &FactorDelta{Mode: 1, Cols: 3, Indices: []int{0, 4, 17}, Rows: denseOf(3, 3, -2).Data}
	if got, err := DecodeFactorDelta(EncodeFactorDelta(fd)); err != nil || !reflect.DeepEqual(got, fd) {
		t.Fatalf("factor delta round trip: got %+v, err %v", got, err)
	}

	tasks := []*Task{
		{ID: 7, Kind: TaskPartialMTTKRP, Mode: 1, RowLo: 3, RowHi: 9},
		{ID: 8, Kind: TaskPartialMTTKRP, Mode: 2, RowLo: 4, RowHi: 4},
	}
	for _, task := range tasks {
		got, err := DecodeTask(EncodeTask(task))
		if err != nil || !reflect.DeepEqual(got, task) {
			t.Fatalf("task %d round trip: got %+v, err %v", task.ID, got, err)
		}
	}

	results := []*Result{
		{ID: 7, Kind: TaskPartialMTTKRP, RowLo: 3, Rows: denseOf(6, 5, 0)},
		{ID: 8, Kind: TaskPartialMTTKRP, RowLo: 4, Rows: la.NewDense(0, 5)},
	}
	for _, r := range results {
		got, err := DecodeResult(EncodeResult(r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("result %d round trip: got %+v, err %v", r.ID, got, err)
		}
	}

	e := &RemoteError{TaskID: 42, Msg: "shard missing"}
	if got, err := DecodeErr(EncodeErr(e)); err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("err round trip: got %+v, err %v", got, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := appendU64(nil, 123)
	if err := WriteFrame(&buf, MsgPing, payload); err != nil {
		t.Fatal(err)
	}
	mt, got, err := ReadFrame(&buf)
	if err != nil || mt != MsgPing || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: type %v payload %x err %v", mt, got, err)
	}
}

// wantDecodeError asserts the decoder rejects the input with a typed
// *DecodeError rather than panicking or succeeding.
func wantDecodeError(t *testing.T, name string, err error) {
	t.Helper()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("%s: want *DecodeError, got %v", name, err)
	}
}

func TestCodecRejectsMalformedInput(t *testing.T) {
	full := EncodeShard(testShard())
	// Every truncation of a valid message must fail cleanly.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeShard(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	_, err := DecodeShard(append(append([]byte{}, full...), 0xFF))
	wantDecodeError(t, "trailing byte", err)

	// Corrupt the entry count upward: count validation must catch it
	// before any allocation.
	corrupt := append([]byte{}, full...)
	corrupt[10] = 0xFF // high byte of the u32 entry count at offset 10
	_, err = DecodeShard(corrupt)
	wantDecodeError(t, "inflated count", err)

	// A row-group delta that lands outside [RowLo, RowHi): offset 14 is the
	// first group's row-delta varint (1 for row 4); 0x3F would mean row 66.
	corrupt = append([]byte{}, full...)
	corrupt[14] = 0x3F
	_, err = DecodeShard(corrupt)
	wantDecodeError(t, "out-of-range row group", err)

	// Inverted task range, and every kind but PartialMTTKRP — among them
	// the gram (2), row-solve (3) and fit (4) kinds of earlier versions.
	_, err = DecodeTask(EncodeTask(&Task{ID: 1, Kind: TaskPartialMTTKRP, RowLo: 5, RowHi: 2}))
	wantDecodeError(t, "inverted range", err)
	for _, k := range []TaskKind{0, 2, 3, 4, 200} {
		_, err = DecodeTask(EncodeTask(&Task{ID: 1, Kind: k}))
		wantDecodeError(t, fmt.Sprintf("task kind %d", k), err)
		_, err = DecodeResult(EncodeResult(&Result{ID: 1, Kind: k, Rows: denseOf(1, 2, 0)}))
		wantDecodeError(t, fmt.Sprintf("result kind %d", k), err)
	}

	// A result whose rows overrun the payload.
	raw := EncodeResult(&Result{ID: 1, Kind: TaskPartialMTTKRP, Rows: denseOf(2, 2, 0)})
	raw[16] = 9 // low byte of the row count
	_, err = DecodeResult(raw)
	wantDecodeError(t, "result rows", err)

	// Hello with order beyond MaxOrder (byte 3: version u16, flags u8, order).
	h := EncodeHello(&Hello{Version: 1, Order: 3, Rank: 2, Dims: []int{2, 2, 2}})
	h[3] = 200
	_, err = DecodeHello(h)
	wantDecodeError(t, "order", err)

	// Factor deltas: non-ascending indices and an inflated row count.
	fd := &FactorDelta{Mode: 1, Cols: 2, Indices: []int{3, 5, 9}, Rows: make([]float64, 6)}
	dRaw := EncodeFactorDelta(fd)
	swap := append([]byte{}, dRaw...)
	copy(swap[7:11], swap[11:15]) // duplicate index 5 over index 3
	_, err = DecodeFactorDelta(swap)
	wantDecodeError(t, "non-ascending delta", err)
	inflated := append([]byte{}, dRaw...)
	inflated[4] = 0xFF // low bytes of the row count
	_, err = DecodeFactorDelta(inflated)
	wantDecodeError(t, "inflated delta count", err)
	for cut := 0; cut < len(dRaw); cut++ {
		if _, err := DecodeFactorDelta(dRaw[:cut]); err == nil {
			t.Fatalf("delta truncation at %d accepted", cut)
		}
	}

	// Frames: unknown type byte and oversized length (9-byte header:
	// type, u32 length, u32 crc32c).
	_, _, err = ReadFrame(bytes.NewReader([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}))
	wantDecodeError(t, "frame type", err)
	_, _, err = ReadFrame(bytes.NewReader([]byte{byte(MsgPing), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}))
	wantDecodeError(t, "frame length", err)
}

// TestFrameChecksumDetectsCorruption flips every bit of a framed message
// in turn; no flip may yield the original frame back as a clean read. A
// flipped payload or type byte must surface as *CorruptFrameError (or a
// *DecodeError for an invalid type byte); a flipped length byte either
// fails the checksum over the mis-sized span or starves the read.
func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	payload := appendU64(nil, 0x1122334455667788)
	if err := WriteFrame(&buf, MsgPing, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	sawCorrupt := false
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte{}, frame...)
		mut[i/8] ^= 1 << (i % 8)
		mt, got, err := ReadFrame(bytes.NewReader(mut))
		if err == nil && mt == MsgPing && bytes.Equal(got, payload) {
			t.Fatalf("bit flip %d absorbed silently", i)
		}
		var ce *CorruptFrameError
		if errors.As(err, &ce) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no flip produced a *CorruptFrameError")
	}
	// And a double check that an intact frame still reads cleanly.
	if _, got, err := ReadFrame(bytes.NewReader(frame)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame rejected: %x err %v", got, err)
	}
}

// decodeShardAoS is the array-of-entries shard decoder DecodeShard replaced,
// kept here — and only here — as the reference the column decoder is held to.
func decodeShardAoS(b []byte) (*Shard, error) {
	d := &dec{b: b}
	s := &Shard{
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
	nnz := d.count(d.u32(), s.Order-1+8, "shard entry")
	s.Entries = make([]tensor.Entry, 0, nnz)
	row := s.RowLo - 1
	for len(s.Entries) < nnz && d.err == nil {
		row += int(d.uvarint())
		if d.err == nil && (row < s.RowLo || row >= s.RowHi) {
			d.fail(fmt.Sprintf("shard row %d outside [%d,%d)", row, s.RowLo, s.RowHi))
			break
		}
		cnt := int(d.uvarint())
		if d.err == nil && (cnt < 1 || cnt > nnz-len(s.Entries)) {
			d.fail(fmt.Sprintf("shard row group count %d out of range", cnt))
			break
		}
		for i := 0; i < cnt && d.err == nil; i++ {
			var e tensor.Entry
			for m := 0; m < s.Order; m++ {
				if m == s.Mode {
					e.Idx[m] = uint32(row)
					continue
				}
				e.Idx[m] = uint32(d.uvarint())
			}
			e.Val = math.Float64frombits(d.u64())
			if d.err == nil {
				s.Entries = append(s.Entries, e)
			}
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// diffShardDecoders holds DecodeShard to the reference decoder on one input:
// same accept/reject, the same *DecodeError (text and offset), the same
// nonzeros in the same order, and recorded max indices equal to a scan.
func diffShardDecoders(t *testing.T, b []byte) {
	t.Helper()
	want, werr := decodeShardAoS(b)
	got, gerr := DecodeShard(b)
	if werr != nil || gerr != nil {
		var de *DecodeError
		if werr == nil || gerr == nil || !errors.As(gerr, &de) || gerr.Error() != werr.Error() {
			t.Fatalf("decoders disagree on %x: columns %v, reference %v", b, gerr, werr)
		}
		return
	}
	if got.Mode != want.Mode || got.Order != want.Order || got.RowLo != want.RowLo || got.RowHi != want.RowHi {
		t.Fatalf("header %+v, reference %+v", got, want)
	}
	if len(got.Cols) != want.Order-1 || !reflect.DeepEqual(got.Entries(), want.Entries) {
		t.Fatalf("nonzeros differ on %x:\n%v\nreference\n%v", b, got.Entries(), want.Entries)
	}
	var scan [tensor.MaxOrder]uint32
	for _, e := range want.Entries {
		for n, x := range e.Idx[:want.Order] {
			scan[n] = max(scan[n], x)
		}
	}
	if got.MaxIdx != scan {
		t.Fatalf("recorded max indices %v, a scan finds %v", got.MaxIdx, scan)
	}
}

// shardTensor generates an order-`order` tensor for the shard tests: dims
// sit on varint width boundaries, every mode has an empty leading row run,
// one row of mode 0 holds more nonzeros than a kernel block, and every
// mode's last index occurs (with all of them at once in one nonzero).
func shardTensor(order int, seed uint64) *tensor.COO {
	dims := []int{130, 129, 16385, 128, 5}[:order]
	x := tensor.New(dims...)
	src := rng.New(seed)
	for i := 0; i < 1200; i++ {
		var e tensor.Entry
		for m, d := range dims {
			e.Idx[m] = uint32(3 + src.Intn(d-3))
			if src.Intn(8) == 0 {
				e.Idx[m] = uint32(d - 1)
			}
		}
		if i%3 == 0 {
			e.Idx[0] = 7
		}
		e.Val = src.NormFloat64()
		x.Entries = append(x.Entries, e)
	}
	var last tensor.Entry
	for m, d := range dims {
		last.Idx[m] = uint32(d - 1)
	}
	last.Val = 1
	x.Entries = append(x.Entries, last)
	return x
}

// materialise copies a range's nonzeros out in Perm order, as buildShard did.
func materialise(x *tensor.COO, mode int, rg tensor.NNZRange) *Shard {
	sh := &Shard{Mode: mode, Order: x.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi, Entries: []tensor.Entry{}}
	for _, p := range x.ModeIndex(mode).Perm[rg.Lo:rg.Hi] {
		sh.Entries = append(sh.Entries, x.Entries[p])
	}
	return sh
}

// checkShardFrame holds the in-place encode of one range to EncodeShard of
// the materialised shard byte for byte, and the frame to both decoders.
func checkShardFrame(t *testing.T, label string, x *tensor.COO, mode int, rg tensor.NNZRange) {
	t.Helper()
	sh := materialise(x, mode, rg)
	frame := shardFrame(x, mode, rg, nil)
	if !bytes.Equal(frame, EncodeShard(sh)) {
		t.Fatalf("%s mode %d rows [%d,%d): in-place frame differs from the materialised shard's", label, mode, rg.RowLo, rg.RowHi)
	}
	if back, err := decodeShardAoS(frame); err != nil || !reflect.DeepEqual(back, sh) {
		t.Fatalf("%s mode %d rows [%d,%d): reference decode %+v, err %v", label, mode, rg.RowLo, rg.RowHi, back, err)
	}
	diffShardDecoders(t, frame)
}

// The one shard encoder, fed (entries, perm) over the whole tensor, must
// write the bytes it writes for the materialised shard, on every shape of
// range the runtime cuts and on per-epoch sampled tensors under frozen
// ranges; and its buffer, sized from Dims, must hold shards whose indices
// sit at Dims[m]-1 — exactly, for a single row.
func TestEncodeInPlaceEqualsMaterialised(t *testing.T) {
	for order := 2; order <= 5; order++ {
		x := shardTensor(order, uint64(order))
		label := fmt.Sprintf("order %d", order)
		for mode := 0; mode < order; mode++ {
			mi := x.ModeIndex(mode)
			rows := x.Dims[mode]
			for _, parts := range []int{1, 2, 4} {
				for _, rg := range mi.Ranges(parts) {
					checkShardFrame(t, label, x, mode, rg)
				}
			}
			// Rows 0..2 are empty along every mode; then every single row,
			// among them mode 0's row 7 (longer than a kernel block) and
			// the last row.
			checkShardFrame(t, label+" empty", x, mode, tensor.NNZRange{RowLo: 0, RowHi: 3})
			for r := 0; r < rows; r++ {
				rg := tensor.NNZRange{RowLo: r, RowHi: r + 1, Lo: int(mi.RowPtr[r]), Hi: int(mi.RowPtr[r+1])}
				checkShardFrame(t, label+" single row", x, mode, rg)
			}
		}
		if n := x.ModeIndex(0).RowPtr[8] - x.ModeIndex(0).RowPtr[7]; n <= 256 {
			t.Fatalf("%s: row 7 of mode 0 holds %d nonzeros, want more than a kernel block", label, n)
		}
		// One row whose nonzeros all sit at the last index of every other
		// mode fills the buffer to the byte.
		corner := tensor.New(x.Dims...)
		for i := 0; i < 300; i++ {
			e := x.Entries[len(x.Entries)-1]
			e.Val = float64(i)
			corner.Entries = append(corner.Entries, e)
		}
		rg := tensor.NNZRange{RowLo: x.Dims[0] - 1, RowHi: x.Dims[0], Lo: 0, Hi: 300}
		checkShardFrame(t, label+" corner", corner, 0, rg)
		if frame := shardFrame(corner, 0, rg, nil); len(frame) != cap(frame) {
			t.Fatalf("%s: corner frame is %d bytes in a %d-byte buffer; the bound from Dims should be exact", label, len(frame), cap(frame))
		}
	}

	// rals: each epoch's sampled tensors, cut along the full tensor's frozen
	// row ranges, as remoteSource.ship cuts them.
	x := plantedTensor()
	rec := &sampleRecorder{full: x}
	o := ralsOpts()
	u, err := o.Update(x)
	if err != nil {
		t.Fatal(err)
	}
	u.Source = rec
	if _, err := cpals.SolveWith(x, o.Options, u); err != nil {
		t.Fatal(err)
	}
	if len(rec.sampled) < 2 {
		t.Fatalf("want several epochs of sampled tensors, got %d", len(rec.sampled))
	}
	for i, sm := range rec.sampled {
		mode := rec.modes[i]
		smi := sm.ModeIndex(mode)
		for _, rg := range x.ModeIndex(mode).Ranges(3) {
			srg := tensor.NNZRange{RowLo: rg.RowLo, RowHi: rg.RowHi, Lo: int(smi.RowPtr[rg.RowLo]), Hi: int(smi.RowPtr[rg.RowHi])}
			checkShardFrame(t, fmt.Sprintf("rals sample %d", i), sm, mode, srg)
		}
	}
}

// sampleRecorder is a cpals.Source that computes locally and keeps every
// distinct sampled tensor it is handed.
type sampleRecorder struct {
	full    *tensor.COO
	sampled []*tensor.COO
	modes   []int
}

func (r *sampleRecorder) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, _ []int, out *la.Dense) error {
	if x != r.full && !slices.Contains(r.sampled, x) {
		r.sampled, r.modes = append(r.sampled, x), append(r.modes, mode)
	}
	cpals.MTTKRPWorkers(x, mode, factors, 1, out, nil)
	return nil
}

func (r *sampleRecorder) FactorUpdated(int, *la.Dense) {}

// The column decoder against the reference on arbitrary bytes: valid frames
// of every order, then each of them mutated — bytes overwritten, the entry
// count and row bounds rewritten, truncated, extended — and plain noise.
func TestDecodeShardMatchesReference(t *testing.T) {
	src := rng.New(11)
	var frames [][]byte
	for order := 1; order <= 5; order++ {
		if order == 1 {
			frames = append(frames, EncodeShard(&Shard{Mode: 0, Order: 1, RowLo: 2, RowHi: 9,
				Entries: []tensor.Entry{{Idx: [tensor.MaxOrder]uint32{2}, Val: 1}, {Idx: [tensor.MaxOrder]uint32{8}, Val: -2}}}))
			continue
		}
		x := shardTensor(order, uint64(100+order))
		for mode := 0; mode < order; mode++ {
			for _, rg := range x.ModeIndex(mode).Ranges(8) {
				frames = append(frames, shardFrame(x, mode, rg, nil))
			}
		}
	}
	frames = append(frames, EncodeShard(testShard()), EncodeShard(&Shard{Mode: 1, Order: 2, RowLo: 5, RowHi: 5}))
	for _, f := range frames {
		diffShardDecoders(t, f)
		for trial := 0; trial < 60; trial++ {
			b := append([]byte(nil), f...)
			switch src.Intn(6) {
			case 0: // overwrite a few bytes anywhere
				for k := 0; k <= src.Intn(3); k++ {
					b[src.Intn(len(b))] = byte(src.Uint64())
				}
			case 1: // a byte of the header: mode, order, row bounds, count
				b[src.Intn(14)] = byte(src.Uint64())
			case 2: // nudge the declared count
				b[13] += byte(1 + src.Intn(3))
			case 3:
				b = b[:src.Intn(len(b)+1)]
			case 4:
				b = append(b, byte(src.Uint64()))
			case 5: // flip a continuation bit: a varint swallows its neighbour
				if len(b) > 14 {
					b[14+src.Intn(len(b)-14)] ^= 0x80
				}
			}
			diffShardDecoders(t, b)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, src.Intn(64))
		for i := range b {
			b[i] = byte(src.Uint64())
		}
		if len(b) > 2 && trial%2 == 0 {
			b[0], b[1] = byte(src.Intn(3)), byte(1+src.Intn(3)) // a plausible mode and order
		}
		diffShardDecoders(t, b)
	}
}

// FuzzDecode drives every payload decoder with arbitrary bytes; the only
// acceptable failure mode is a returned error. Shard bytes go through the
// column decoder and the reference decoder, which must agree.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(MsgHello), EncodeHello(&Hello{Version: 1, Order: 3, Rank: 4, Dims: []int{5, 6, 7}, Worker: 1, Workers: 2}))
	f.Add(uint8(MsgShard), EncodeShard(testShard()))
	f.Add(uint8(MsgFactor), EncodeFactor(&Factor{Mode: 1, M: denseOf(3, 2, 0)}))
	f.Add(uint8(MsgFactorDelta), EncodeFactorDelta(&FactorDelta{Mode: 0, Cols: 2, Indices: []int{1, 2}, Rows: []float64{1, 2, 3, 4}}))
	f.Add(uint8(MsgTask), EncodeTask(&Task{ID: 3, Kind: TaskPartialMTTKRP, Mode: 1, RowLo: 1, RowHi: 4}))
	// The kind bytes of the retired gram (2), row-solve (3) and fit (4)
	// tasks, which must be refused.
	for k := TaskKind(2); k <= 4; k++ {
		f.Add(uint8(MsgTask), EncodeTask(&Task{ID: 4, Kind: k, RowLo: 1, RowHi: 4}))
	}
	f.Add(uint8(MsgResult), EncodeResult(&Result{ID: 3, Kind: TaskPartialMTTKRP, RowLo: 1, Rows: denseOf(3, 2, 0)}))
	f.Add(uint8(MsgErr), EncodeErr(&RemoteError{TaskID: 9, Msg: "boom"}))
	f.Add(uint8(MsgPing), appendU64(nil, 77))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		switch MsgType(kind) {
		case MsgHello, MsgHelloAck:
			DecodeHello(b)
		case MsgShard:
			diffShardDecoders(t, b)
		case MsgFactor:
			DecodeFactor(b)
		case MsgFactorDelta:
			DecodeFactorDelta(b)
		case MsgTask:
			if task, err := DecodeTask(b); err == nil && task.Kind != TaskPartialMTTKRP {
				t.Fatalf("task of kind %d accepted", task.Kind)
			}
		case MsgResult:
			if res, err := DecodeResult(b); err == nil && res.Kind != TaskPartialMTTKRP {
				t.Fatalf("result of kind %d accepted", res.Kind)
			}
		case MsgErr:
			DecodeErr(b)
		}
		// Frame parsing must also be total on arbitrary bytes.
		ReadFrame(bytes.NewReader(b))
	})
}
