package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// Worker serves CP-ALS tasks for one coordinator at a time. It is a pure
// executor: all control flow (partitioning, scheduling, reduction order,
// convergence) lives in the coordinator, so a worker is stateless between
// sessions and can be killed at any moment without corrupting a run.
type Worker struct {
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewWorker returns a Worker ready to Serve.
func NewWorker() *Worker { return &Worker{conns: map[net.Conn]struct{}{}} }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on ln until the listener fails or
// Close is called, handling one session at a time. Sequential sessions
// (e.g. consecutive benchmark runs) reuse the same worker process.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.conns == nil {
		w.conns = map[net.Conn]struct{}{}
	}
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return fmt.Errorf("dist: worker is closed")
	}
	w.ln = ln
	w.mu.Unlock()
	pol := defaultRetry
	seed := rng.Hash64(rng.HashAny(ln.Addr().String()), 0x5e12)
	acceptFails := 0
	for {
		c, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			// Transient failures (EMFILE, network stack hiccups) back off
			// under the shared policy instead of tearing the worker down; a
			// closed listener or persistent error still exits. Consecutive
			// failures are bounded — a successful accept resets the count.
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			if acceptFails < pol.MaxAttempts {
				acceptFails++
				w.logf("dist: worker accept (attempt %d): %v", acceptFails, err)
				t := time.NewTimer(pol.Delay(seed, acceptFails))
				<-t.C
				continue
			}
			return err
		}
		acceptFails = 0
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return nil
		}
		w.conns[c] = struct{}{}
		w.mu.Unlock()
		w.logf("dist: worker session from %s", c.RemoteAddr())
		w.handle(c)
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
	}
}

// Close stops the listener and severs any active coordinator connection.
// From the coordinator's perspective this is indistinguishable from the
// worker process dying — which is exactly what chaos kills use it for.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.ln != nil {
		w.ln.Close()
	}
	for c := range w.conns {
		c.Close()
	}
	return nil
}

// shardKey identifies a resident shard: shards are cut per (mode,
// output-row range) and never overlap within a mode.
type shardKey struct {
	mode         int
	rowLo, rowHi int
}

// wsession is the per-connection worker state. The read loop stores
// shards/factors and the executor goroutine reads them; the mutex makes
// the handoff safe when a reassigned shard arrives while an earlier task
// of the same stage is still executing. Factor updates (full or delta)
// swap the matrix pointer under the mutex — copy-on-write — so a task
// that snapshotted the previous matrix keeps reading consistent state.
type wsession struct {
	mu      sync.Mutex
	hello   *Hello
	running bool // a task is executing against a snapshot of factors
	shards  map[shardKey]*ShardColumns
	factors []*la.Dense

	// csfs caches the per-shard CSF trees for the optional SPLATT kernel
	// (Hello flag HelloUseCSF). An entry is invalidated when its shard is
	// replaced (per-epoch sampled shards reuse their key).
	csfs map[shardKey]*tensor.CSF
}

func (w *Worker) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 1<<16)
	bw := bufio.NewWriterSize(c, 1<<16)
	var wmu sync.Mutex
	send := func(t MsgType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteFrame(bw, t, payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	s := &wsession{
		shards: map[shardKey]*ShardColumns{},
		csfs:   map[shardKey]*tensor.CSF{},
	}

	// Tasks execute on their own goroutine so the read loop keeps
	// answering heartbeats while a long MTTKRP runs.
	taskc := make(chan *Task, 64)
	done := make(chan struct{})
	defer func() { close(taskc); <-done }()
	go func() {
		defer close(done)
		broken := false // keep draining taskc so the read loop never blocks
		for t := range taskc {
			if broken {
				continue
			}
			res, err := s.execGuarded(t)
			if err != nil {
				if send(MsgErr, EncodeErr(&RemoteError{TaskID: t.ID, Msg: err.Error()})) != nil {
					broken = true
				}
				continue
			}
			if send(MsgResult, EncodeResult(res)) != nil {
				broken = true
			}
		}
	}()

	for {
		mt, payload, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF {
				w.logf("dist: worker read: %v", err)
			}
			return
		}
		switch mt {
		case MsgHello:
			h, err := DecodeHello(payload)
			if err != nil {
				w.logf("dist: worker bad hello: %v", err)
				return
			}
			if h.Version != ProtocolVersion {
				send(MsgErr, EncodeErr(&RemoteError{Msg: fmt.Sprintf(
					"protocol version mismatch: coordinator %d, worker %d", h.Version, ProtocolVersion)}))
				return
			}
			s.mu.Lock()
			s.hello = h
			s.factors = make([]*la.Dense, h.Order)
			s.mu.Unlock()
			if err := send(MsgHelloAck, EncodeHello(&Hello{Version: ProtocolVersion, Order: h.Order, Rank: h.Rank, Dims: h.Dims, Worker: h.Worker, Workers: h.Workers})); err != nil {
				return
			}
		case MsgShard:
			sh, err := DecodeShard(payload)
			if err != nil {
				w.logf("dist: worker bad shard: %v", err)
				return
			}
			// Replacing a resident shard (per-epoch sampled shards reuse
			// their key) invalidates any CSF tree built from the old one.
			key := shardKey{sh.Mode, sh.RowLo, sh.RowHi}
			s.mu.Lock()
			s.shards[key] = sh
			delete(s.csfs, key)
			s.mu.Unlock()
		case MsgFactor:
			f, err := DecodeFactor(payload)
			if err != nil {
				w.logf("dist: worker bad factor: %v", err)
				return
			}
			s.mu.Lock()
			if s.factors == nil || f.Mode >= len(s.factors) {
				s.mu.Unlock()
				w.logf("dist: worker factor before hello or mode out of range")
				return
			}
			s.factors[f.Mode] = f.M
			s.mu.Unlock()
		case MsgFactorDelta:
			fd, err := DecodeFactorDelta(payload)
			if err != nil {
				w.logf("dist: worker bad factor delta: %v", err)
				return
			}
			if err := s.applyDelta(fd); err != nil {
				send(MsgErr, EncodeErr(&RemoteError{Msg: err.Error()}))
				return
			}
		case MsgTask:
			t, err := DecodeTask(payload)
			if err != nil {
				w.logf("dist: worker bad task: %v", err)
				return
			}
			taskc <- t
		case MsgPing:
			if err := send(MsgPong, nil); err != nil {
				return
			}
		case MsgShutdown:
			return
		default:
			w.logf("dist: worker unexpected frame %v", mt)
			return
		}
	}
}

// applyDelta patches the changed rows of one factor — in place when no task
// is executing (the usual case: the coordinator sends a mode's delta after
// that mode's MTTKRP came back), otherwise copy-on-write: the resident
// matrix is cloned, the rows land in the clone, and the pointer swaps under
// the lock, so a task that snapshotted the old matrix keeps reading
// unchanged state — the coordinator guarantees any task that must see the
// new rows is sent after the delta on the same ordered connection.
// A delta for a factor never broadcast is a protocol error: deltas are
// only valid against state this worker was actually sent.
func (s *wsession) applyDelta(fd *FactorDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.factors == nil || fd.Mode < 0 || fd.Mode >= len(s.factors) {
		return fmt.Errorf("factor delta before hello or mode %d out of range", fd.Mode)
	}
	f := s.factors[fd.Mode]
	if f == nil {
		return fmt.Errorf("factor delta for mode %d before any full broadcast", fd.Mode)
	}
	if fd.Cols != f.Cols {
		return fmt.Errorf("factor delta mode %d: %d cols, resident factor has %d", fd.Mode, fd.Cols, f.Cols)
	}
	n := len(fd.Indices)
	if n > 0 && fd.Indices[n-1] >= f.Rows {
		return fmt.Errorf("factor delta mode %d: row %d out of %d", fd.Mode, fd.Indices[n-1], f.Rows)
	}
	nf := f
	if s.running {
		nf = f.Clone()
	}
	for i, idx := range fd.Indices {
		copy(nf.Row(idx), fd.Rows[i*fd.Cols:(i+1)*fd.Cols])
	}
	s.factors[fd.Mode] = nf
	return nil
}

// execGuarded runs a task, converting any panic (e.g. a malformed shard
// driving a library precondition) into a reported task error instead of
// crashing the worker process.
func (s *wsession) execGuarded(t *Task) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("task panic: %v", r)
		}
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()
	return s.exec(t)
}

// snapshot resolves the state a task needs under the lock, so execution
// proceeds without holding it.
func (s *wsession) snapshot() (*Hello, []*la.Dense) {
	s.mu.Lock()
	defer s.mu.Unlock()
	factors := make([]*la.Dense, len(s.factors))
	copy(factors, s.factors)
	s.running = true
	return s.hello, factors
}

func (s *wsession) exec(t *Task) (*Result, error) {
	hello, factors := s.snapshot()
	if hello == nil {
		return nil, fmt.Errorf("task before hello")
	}
	if t.Kind != TaskPartialMTTKRP {
		return nil, fmt.Errorf("unknown task kind %d", uint8(t.Kind))
	}
	return s.execMTTKRP(t, hello, factors)
}

// execMTTKRP computes output rows [RowLo, RowHi) of the mode-t.Mode MTTKRP
// from the resident shard. The shard's nonzeros are in the stable ModeIndex
// Perm order, and each output row is accumulated nonzero by nonzero in that
// order by the block body the shared-memory MTTKRPWorkers kernel runs — the
// identical floating-point sequence for those rows. An empty row range
// needs no shard and yields no rows.
func (s *wsession) execMTTKRP(t *Task, hello *Hello, factors []*la.Dense) (*Result, error) {
	if t.RowLo == t.RowHi {
		return &Result{ID: t.ID, Kind: t.Kind, RowLo: t.RowLo, Rows: la.NewDense(0, hello.Rank)}, nil
	}
	key := shardKey{t.Mode, t.RowLo, t.RowHi}
	s.mu.Lock()
	sh := s.shards[key]
	s.mu.Unlock()
	if sh == nil {
		return nil, fmt.Errorf("no resident shard for mode %d rows [%d,%d)", t.Mode, t.RowLo, t.RowHi)
	}
	order := hello.Order
	if sh.Order != order {
		return nil, fmt.Errorf("mttkrp mode %d: order-%d shard in an order-%d session", t.Mode, sh.Order, order)
	}
	for n := 0; n < order; n++ {
		if n == t.Mode {
			continue
		}
		if factors[n] == nil {
			return nil, fmt.Errorf("mttkrp mode %d: factor %d not broadcast", t.Mode, n)
		}
	}
	if hello.Flags&HelloUseCSF != 0 {
		return s.execMTTKRPCSF(t, hello, factors, sh)
	}
	if err := sh.checkIndices("mttkrp", func(n int) int { return factors[n].Rows }); err != nil {
		return nil, err
	}
	out := la.NewDense(t.RowHi-t.RowLo, hello.Rank)
	cpals.MTTKRPColumns(out, t.RowLo, sh.Rows, sh.Vals, sh.Cols, t.Mode, factors)
	return &Result{ID: t.ID, Kind: t.Kind, RowLo: t.RowLo, Rows: out}, nil
}

// execMTTKRPCSF is the optional SPLATT-kernel variant of PartialMTTKRP: a
// CSF tree is built once per resident shard (rooted at the shard's mode,
// remaining modes ascending — the BuildCSFs ordering) and walked with
// fiber reuse. Because NewCSF sorts entries stably, a shard lists each
// row's entries in the tensor's order (the mode index is stable too), and
// every root's subtree is a pure function of that root's entries in that
// order — duplicates included, summed in input order — the output
// rows are bitwise identical to the corresponding rows of a full-tensor
// CSF MTTKRP — the dist CSF path reproduces the single-process CSF solver
// exactly, though not the COO reference (the factored arithmetic differs).
func (s *wsession) execMTTKRPCSF(t *Task, hello *Hello, factors []*la.Dense, sh *ShardColumns) (*Result, error) {
	if t.Mode >= len(hello.Dims) || t.RowHi > hello.Dims[t.Mode] || t.RowLo < 0 {
		return nil, fmt.Errorf("csf mttkrp mode %d: rows [%d,%d) out of dims", t.Mode, t.RowLo, t.RowHi)
	}
	key := shardKey{t.Mode, t.RowLo, t.RowHi}
	s.mu.Lock()
	csf := s.csfs[key]
	s.mu.Unlock()
	if csf == nil {
		// The tree is built over hello.Dims, so that is what the shard's
		// indices are held to before it is cached.
		if err := sh.checkIndices("csf mttkrp", func(n int) int { return hello.Dims[n] }); err != nil {
			return nil, err
		}
		// The tree is what this kernel walks; the entries it is sorted from
		// live only until NewCSF returns.
		tc := tensor.New(hello.Dims...)
		tc.Entries = sh.Entries()
		mo := make([]int, 0, hello.Order)
		mo = append(mo, t.Mode)
		for m := 0; m < hello.Order; m++ {
			if m != t.Mode {
				mo = append(mo, m)
			}
		}
		csf = tensor.NewCSF(tc, mo)
		s.mu.Lock()
		s.csfs[key] = csf
		s.mu.Unlock()
	}
	if factors[t.Mode] == nil {
		// The kernel probes factors[0].Cols but never reads the target
		// mode's rows; give it the right shape.
		factors[t.Mode] = la.NewDense(hello.Dims[t.Mode], hello.Rank)
	}
	full := cpals.MTTKRPCSF(csf, factors)
	return &Result{ID: t.ID, Kind: t.Kind, RowLo: t.RowLo, Rows: rowsView(full, t.RowLo, t.RowHi)}, nil
}

// rowsView is a zero-copy view of rows [lo, hi) of m.
func rowsView(m *la.Dense, lo, hi int) *la.Dense {
	return &la.Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
