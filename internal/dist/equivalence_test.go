package dist

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

// sparseTensor is large-dimensioned relative to its nonzero count, so each
// worker's touched-row sets are a small fraction of every mode and delta
// broadcasts genuinely engage (on plantedTensor's tiny dims every worker
// touches every row and the size heuristic falls back to full sends).
func sparseTensor() *tensor.COO {
	return tensor.GenLowRank(11, 2000, 4, 0.01, 3000, 2500, 2000)
}

func sparseOpts() cpals.Options {
	return cpals.Options{Rank: 4, MaxIters: 4, Seed: 9, Parallelism: 2}
}

// TestToggleMatrixBitwise runs the delta-broadcast toggle both ways at 4
// workers. Both runs must be bitwise identical to the serial solver, run
// one stage per MTTKRP, and the delta run must actually send delta frames
// and strictly less factor traffic than the full-broadcast run.
func TestToggleMatrixBitwise(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	var deltaBytes, fullBytes int64
	for _, cb := range []struct {
		label   string
		noDelta bool
	}{
		{"delta", false},
		{"full broadcast", true},
	} {
		c, err := StartInProcess(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.noDelta = cb.noDelta
		got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", cb.label, err)
		}
		sameBits(t, cb.label, want, got)
		if wantStages := opts.MaxIters * x.Order(); stats.Stages != wantStages {
			t.Fatalf("%s: %d stages, want %d (one per MTTKRP)", cb.label, stats.Stages, wantStages)
		}
		if cb.noDelta {
			if stats.DeltaFrames != 0 {
				t.Fatalf("%s: %d delta frames with deltas disabled", cb.label, stats.DeltaFrames)
			}
			fullBytes = stats.FactorBytes
		} else {
			if stats.DeltaFrames == 0 {
				t.Fatalf("%s: no delta frames sent: %+v", cb.label, stats)
			}
			deltaBytes = stats.FactorBytes
		}
		if stats.FactorBytes == 0 || stats.ShardBytes == 0 {
			t.Fatalf("%s: traffic breakdown missing: %+v", cb.label, stats)
		}
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta broadcasts did not reduce factor traffic: %d >= %d bytes", deltaBytes, fullBytes)
	}
}

// TestCSFKernelBitwiseMatchesSerialCSF checks the distributed CSF path
// against its own serial reference: dist with UseCSF reproduces
// cpals.Solve with CSFKernel bit for bit at every worker count. (The CSF
// kernel is NOT bitwise against the COO kernel — different association of
// the same sums — which is exactly why it carries its own reference.)
func TestCSFKernelBitwiseMatchesSerialCSF(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	opts.CSFKernel = true
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c, err := StartInProcess(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.UseCSF = true
		got, _, err := Solve(x, opts, cpals.Update{}, cfg)
		c.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		sameBits(t, "csf workers", want, got)
	}
}

// A tensor with runs of duplicate coordinates, each spread over the input:
// the workers' trees sum every run in input order, as the single-process
// trees do, so the dist CSF path still reproduces serial CSF bit for bit.
func TestCSFKernelSumsDuplicatesLikeSerialCSF(t *testing.T) {
	x := plantedTensor()
	raw := tensor.New(x.Dims...)
	for _, part := range []float64{0.5, 0.3, 0.2} {
		for _, e := range x.Entries {
			raw.Entries = append(raw.Entries, tensor.Entry{Idx: e.Idx, Val: e.Val * part})
		}
	}
	opts := solveOpts()
	opts.CSFKernel = true
	want, err := cpals.Solve(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	cfg.UseCSF = true
	got, _, err := Solve(raw, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "csf workers, duplicates", want, got)
}

// TestChaosReassignmentResyncsFullFactor kills a worker mid-run with delta
// broadcasts active. The substitute inherits the dead worker's tasks and
// touched-row sets; because its resident factors are stale for the
// inherited rows, the coordinator must resync it with FULL factor frames
// (never a delta against state it was not sent) — and the run still
// matches serial bit for bit.
func TestChaosReassignmentResyncsFullFactor(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	// Stage 2 is iteration 0's second MTTKRP: by then factor 0 has been
	// updated, so the substitute is guaranteed stale.
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "chaos + deltas", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("want one dead worker, got %+v", stats)
	}
	if stats.DeltaFrames == 0 {
		t.Fatalf("delta broadcasts never engaged: %+v", stats)
	}
	if stats.Resyncs == 0 {
		t.Fatalf("substitute worker was never resynced with a full factor: %+v", stats)
	}
}

// TestMidFlightKillWithDeltas is the in-flight reassignment path (kill
// AFTER dispatch) under delta broadcasts: tasks already on the dead
// worker's socket are re-dispatched to a substitute that needs a resync,
// and the result still matches serial bit for bit. Worker 2 holds back
// everything it would send once its stage-3 task (iteration 0's first
// mode-2 task) has arrived, so that task is still in flight when the kill
// lands, however fast the worker computes it.
func TestMidFlightKillWithDeltas(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := startHeld(t, 3, 2, 2)
	defer c.Close()
	cfg := c.Config()
	var once sync.Once
	cfg.AfterDispatch = func(stage uint64) {
		if stage == 3 {
			once.Do(func() { c.Kills[2]() })
		}
	}
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "mid-flight kill + deltas", want, got)
	if stats.WorkerDeaths != 1 || stats.Reassignments == 0 {
		t.Fatalf("want one death with reassignments, got %+v", stats)
	}
}

// startHeld starts n in-process workers as StartInProcess does, except
// that worker slot holds back what it sends once it has read a task for
// mode (see holdListener).
func startHeld(t *testing.T, n, slot, mode int) *LocalCluster {
	t.Helper()
	c := &LocalCluster{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		w := NewWorker()
		if i == slot {
			go w.Serve(holdListener{Listener: ln, mode: mode})
		} else {
			go w.Serve(ln)
		}
		c.Addrs = append(c.Addrs, ln.Addr().String())
		c.Kills = append(c.Kills, w.Close)
		c.closers = append(c.closers, func() { w.Close() })
	}
	return c
}

// holdListener hands a worker connections that stop sending once the
// worker has read a task for the given mode: from then on every write
// blocks until the connection is closed, so that task's result never
// reaches the coordinator, and a kill after dispatch always finds it in
// flight.
type holdListener struct {
	net.Listener
	mode int
}

func (l holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, mode: l.mode, closed: make(chan struct{})}, nil
}

type holdConn struct {
	net.Conn
	mode   int
	in     []byte // read bytes not yet parsed into whole frames
	hold   atomic.Bool
	closed chan struct{}
	once   sync.Once
}

// Read passes the coordinator's bytes through and parses their frames
// before the worker sees them, so the hold is set before the task runs.
func (c *holdConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in = append(c.in, p[:n]...)
	for len(c.in) >= frameHeaderLen {
		end := frameHeaderLen + int(binary.BigEndian.Uint32(c.in[1:]))
		if len(c.in) < end {
			break
		}
		if MsgType(c.in[0]) == MsgTask {
			if t, err := DecodeTask(c.in[frameHeaderLen:end]); err == nil && t.Mode == c.mode {
				c.hold.Store(true)
			}
		}
		c.in = c.in[end:]
	}
	return n, err
}

func (c *holdConn) Write(p []byte) (int, error) {
	if c.hold.Load() {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (c *holdConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
