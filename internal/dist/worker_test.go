package dist

import (
	"net"
	"strings"
	"testing"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// workerReply sends a hello, full factors, one shard and one PartialMTTKRP
// task to an in-process worker over loopback TCP and returns the frame the
// worker answers the task with.
func workerReply(t *testing.T, flags uint8, dims []int, sh *Shard) (MsgType, []byte) {
	t.Helper()
	lc, err := StartInProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	c, err := net.Dial("tcp", lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))

	const rank = 3
	send := func(mt MsgType, payload []byte) {
		t.Helper()
		if err := WriteFrame(c, mt, payload); err != nil {
			t.Fatal(err)
		}
	}
	send(MsgHello, EncodeHello(&Hello{Version: ProtocolVersion, Flags: flags, Order: len(dims), Rank: rank, Dims: dims, Workers: 1}))
	if mt, _, err := ReadFrame(c); err != nil || mt != MsgHelloAck {
		t.Fatalf("handshake: frame %v, err %v", mt, err)
	}
	for n, d := range dims {
		send(MsgFactor, EncodeFactor(&Factor{Mode: n, M: cpals.InitFactor(1, n, d, rank)}))
	}
	send(MsgShard, EncodeShard(sh))
	send(MsgTask, EncodeTask(&Task{ID: 7, Kind: TaskPartialMTTKRP, Mode: sh.Mode, RowLo: sh.RowLo, RowHi: sh.RowHi}))
	mt, payload, err := ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	return mt, payload
}

// The kernel no longer tests every nonzero's indices against the factor it
// gathers from; the worker checks the shard's largest index per mode once on
// arrival instead. A shard that indexes past a factor must still be refused
// with the out-of-range error — not a recovered panic, not a wrong answer —
// on both MTTKRP kernels, and a valid shard must still compute the rows.
func TestWorkerRefusesShardIndexingPastFactor(t *testing.T) {
	dims := []int{6, 5, 4}
	entry := func(val float64, i, j, k uint32) tensor.Entry {
		return tensor.Entry{Idx: [tensor.MaxOrder]uint32{i, j, k}, Val: val}
	}
	good := []tensor.Entry{entry(1, 2, 0, 3), entry(2, 2, 4, 1), entry(3, 4, 1, 0)}
	bad := append(append([]tensor.Entry(nil), good...), entry(4, 5, 2, 4)) // mode 2 has rows 0..3

	for name, flags := range map[string]uint8{"coo": 0, "csf": HelloUseCSF} {
		mt, payload := workerReply(t, flags, dims, &Shard{Mode: 0, Order: 3, RowLo: 2, RowHi: 6, Entries: bad})
		if mt != MsgErr {
			t.Fatalf("%s: out-of-range shard answered with %v, want an error frame", name, mt)
		}
		re, err := DecodeErr(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(re.Msg, "mttkrp mode 0: entry index 4 out of range for factor 2 (4 rows)") || strings.Contains(re.Msg, "panic") {
			t.Errorf("%s: error %q, want the out-of-range report", name, re.Msg)
		}

		mt, payload = workerReply(t, flags, dims, &Shard{Mode: 0, Order: 3, RowLo: 2, RowHi: 6, Entries: good})
		if mt != MsgResult {
			t.Fatalf("%s: valid shard answered with %v", name, mt)
		}
		res, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(dims...)
		x.Entries = good
		factors := make([]*la.Dense, len(dims))
		for n, d := range dims {
			factors[n] = cpals.InitFactor(1, n, d, 3)
		}
		// The CSF kernel multiplies in another order: equal to rounding only.
		tol := 0.0
		if flags&HelloUseCSF != 0 {
			tol = 1e-12
		}
		want := cpals.MTTKRP(x, 0, factors)
		if d := la.MaxAbsDiff(res.Rows, rowsView(want, 2, 6)); d > tol {
			t.Errorf("%s: rows differ from the reference by %g", name, d)
		}
	}
}

// A worker refuses a coordinator that speaks the previous protocol version,
// with an error that names both versions, and ends the connection.
func TestWorkerRefusesPreviousProtocolVersion(t *testing.T) {
	lc, err := StartInProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	c, err := net.Dial("tcp", lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(c, MsgHello, EncodeHello(&Hello{Version: 3, Order: 3, Rank: 2, Dims: []int{4, 4, 4}, Workers: 1})); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := ReadFrame(c)
	if err != nil || mt != MsgErr {
		t.Fatalf("v3 hello answered with %v, err %v; want an error frame", mt, err)
	}
	re, err := DecodeErr(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := "protocol version mismatch: coordinator 3, worker 4"; re.Msg != want {
		t.Errorf("refusal %q, want %q", re.Msg, want)
	}
	if _, _, err := ReadFrame(c); err == nil {
		t.Error("connection still open after the refusal")
	}
}
