package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// Config parameterizes a coordinator session.
type Config struct {
	// Addrs are the worker TCP addresses, one per worker slot. Slot order
	// is the reduction rank order and must be identical across runs for
	// bitwise reproducibility (it is, for any fixed Addrs).
	Addrs []string

	// Kills, when non-nil, holds one kill hook per Addrs entry (e.g.
	// process kill for forked workers). Chaos-plan node crashes invoke it;
	// a nil entry falls back to severing the connection.
	Kills []func() error

	// noDelta disables delta factor broadcasts: every mode-iteration ships
	// full factor matrices to every worker. Solve sets it for a Sampler,
	// whose modes touch an epoch-varying row subset; results are bitwise
	// identical either way.
	noDelta bool

	// UseCSF makes workers run PartialMTTKRP with the SPLATT CSF kernel on
	// their shards. The run is then bitwise identical to the single-process
	// CSF solver (cpals CSFKernel), NOT to the COO reference — the factored
	// fiber arithmetic evaluates the same sums in a different order.
	UseCSF bool

	// Retry is the shared backoff schedule: initial dials retry under it
	// (a worker whose listener comes up late still joins), dead workers
	// are redialed under its delay curve by the rejoin loop, and a task
	// may be (re)dispatched at most MaxAttempts+workers times before the
	// session aborts instead of bouncing forever. Zero fields take the
	// package defaults (5 attempts, 100ms..2s, x2, 50% jitter).
	Retry RetryPolicy

	// DisableRejoin turns off the background re-admission of dead
	// workers: a lost worker then stays lost for the session (the
	// pre-v3 behavior). Reassignment to survivors still happens.
	DisableRejoin bool

	// MinWorkers is the live-worker floor of Solve: when the live count is
	// below it before an iteration's first MTTKRP, or a stage finds no live
	// worker at all, the coordinator computes the remaining MTTKRPs itself
	// — bitwise identical to the distributed result — instead of failing.
	// 0 means 1 (degrade only when no workers remain); negative disables
	// degradation entirely, turning fleet collapse into a hard error.
	MinWorkers int

	// OnTornWrite, when non-nil, fires right after the iteration
	// checkpoint callback when the chaos plan schedules a TornWrite at
	// or before the current stage: the caller is expected to damage the
	// checkpoint file, simulating a crash mid-write. Test/bench only.
	OnTornWrite func(iter int)

	// Plan, when non-nil, schedules faults against the session's stage
	// clock. A stage is one MTTKRP round, so an iteration over an order-N
	// tensor is N stages and stage 1 is iteration 0's mode-0 MTTKRP. Every
	// NodeCrash, NetPartition and FrameCorrupt event whose stage has
	// arrived acts on its worker slot before the stage dispatches; a
	// TornWrite fires after the next checkpoint (Solve only). Other event
	// kinds have no physical analogue here and are ignored.
	Plan *chaos.FaultPlan

	// AfterDispatch, when non-nil, runs after a stage's tasks have been
	// sent and before results are awaited. Tests use it to kill workers
	// with tasks in flight, exercising the reassignment path.
	AfterDispatch func(stage uint64)

	// Logf, when non-nil, receives coordinator lifecycle log lines.
	Logf func(format string, args ...any)
}

const (
	dialTimeout      = 5 * time.Second        // bounds each worker dial attempt and handshake
	heartbeatEvery   = 250 * time.Millisecond // ping cadence
	heartbeatTimeout = 10 * heartbeatEvery    // silence after which a worker is declared dead
)

// Stats are the REAL measurements of a distributed run — wall clock and
// bytes moved over sockets — kept deliberately separate from the modeled
// counters in internal/cluster.Metrics.
type Stats struct {
	Workers       int     // workers the session started with
	WorkersAlive  int     // workers still alive at the end
	WallSeconds   float64 // real elapsed time of the whole session
	BytesSent     int64   // bytes written to worker sockets
	BytesRecv     int64   // bytes read from worker sockets
	Stages        int     // MTTKRP rounds run on the fleet
	WorkerDeaths  int     // workers lost (timeout, socket error, or kill)
	Reassignments int     // tasks re-dispatched after a worker death
	ShardResends  int     // shards re-shipped to a substitute worker
	Rejoins       int     // dead workers re-admitted mid-solve
	CorruptFrames int     // inbound frames rejected by the CRC32-C check
	Degraded      bool    // solve finished on the coordinator after fleet collapse

	// Communication-plan counters (payload bytes, excluding frame headers).
	ShardBytes  int64 // nonzero shards shipped at session start + resends
	FactorBytes int64 // factor state shipped: full broadcasts, deltas, resyncs
	DeltaFrames int   // FactorDelta frames sent
	Resyncs     int   // full-factor resyncs forced by task reassignment

	// Phases splits WallSeconds by what the solver goroutine was doing.
	Phases Phases
}

// Phases are coordinator wall-clock seconds, lapped at the seams of the
// solver loop: every moment from the start of the call to its return is in
// exactly one of them, so they sum to WallSeconds. The first four precede
// the first MTTKRP; the rest are totals over the iterations.
type Phases struct {
	Connect      float64 // dial and handshake every worker
	Partition    float64 // mode indexes and row ranges
	ShardShip    float64 // Solve's shard encode + enqueue and touched-row plan
	FactorInit   float64 // coordinator work before the first MTTKRP: factor init, grams, ||X||
	MTTKRPWait   float64 // MTTKRP stages: shard shipping, dispatch, wait, assembly
	FactorUpdate float64 // diff, delta encode and enqueue per worker
	Local        float64 // coordinator work between remote operations: rule, normalize, gram, fit, callbacks
	Other        float64 // after the last remote operation
}

// PhaseSeconds is one named phase total.
type PhaseSeconds struct {
	Name    string
	Seconds float64
}

// List returns the phases in the order they first occur.
func (p Phases) List() []PhaseSeconds {
	return []PhaseSeconds{
		{"connect", p.Connect}, {"partition", p.Partition}, {"shard-ship", p.ShardShip},
		{"factor-init", p.FactorInit}, {"mttkrp-wait", p.MTTKRPWait},
		{"factor-update", p.FactorUpdate}, {"local", p.Local}, {"other", p.Other},
	}
}

// bitset is a fixed-size row set (touched-row bookkeeping).
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// outFrame is one queued write to a worker.
type outFrame struct {
	t       MsgType
	payload []byte
}

// remote is the coordinator's view of one worker connection. A rejoined
// worker gets a brand-new remote for its slot — pointer identity therefore
// distinguishes "the connection that computed these rows" from "the slot".
type remote struct {
	slot  int
	addr  string
	conn  net.Conn
	cc    *countingConn
	br    *bufio.Reader
	bw    *bufio.Writer
	alive atomic.Bool
	// lastPong is the UnixNano of the latest heartbeat reply.
	lastPong atomic.Int64
	deadOnce sync.Once
	kill     func() error

	// outbox feeds the per-worker writer goroutine: sends are queued and
	// written asynchronously so a broadcast to worker k+1 overlaps the
	// frames still draining to worker k. gone unblocks queued senders when
	// the worker dies; wdone closes when the writer goroutine exits.
	outbox chan outFrame
	gone   chan struct{}
	wdone  chan struct{}

	// Solver-goroutine-only bookkeeping (no locking needed).
	// shards[key] is the tensor whose shard this connection holds under key
	// (the worker replaces by key).
	shards map[shardKey]*tensor.COO
	// touched[m] marks the factor-m rows this worker's resident work reads:
	// rows referenced by its shards of the other modes. Frozen at session
	// start; a death merges the dead worker's sets into its substitute's.
	touched []bitset
	// prev[m] is the factor-m state this worker was last sent (nil until
	// the initial full broadcast). Deltas are computed against it, so a
	// worker is never sent a delta against state it does not hold.
	prev []*la.Dense
}

// resMsg is one reader-goroutine delivery to the dispatch loop.
type resMsg struct {
	slot int
	res  *Result
	rerr *RemoteError
}

// Session drives CP-ALS stages across a set of workers. All exported
// methods are called from a single goroutine (the solver); internal
// reader/writer/heartbeat goroutines communicate through channels.
type Session struct {
	cfg     Config
	t       *tensor.COO
	rank    int
	remotes []*remote

	resultc chan resMsg
	deathc  chan int
	rejoinc chan *remote
	closed  chan struct{}

	bytesSent    atomic.Int64
	bytesRecv    atomic.Int64
	corruptRecvd atomic.Int64

	// frozen[k][m] is worker k's pristine touched-row set for factor m,
	// deep-copied in shipShards before any death merges widen the live
	// copies; a rejoining worker is re-admitted with a fresh clone of it.
	frozen [][]bitset
	// curFactors[m] is the live factor matrix for mode m (set by the
	// solver); a rejoining worker is brought current from it at install.
	curFactors []*la.Dense

	stageSeq uint64
	nextTask uint64
	stage    *stage // the stage in flight, nil between stages
	fatal    error
	stats    Stats
	lapAt    time.Time // end of the last lapped phase (solver goroutine only)
}

// lap adds the time since the previous lap (or the session's creation) to
// one phase total.
func (s *Session) lap(phase *float64) {
	now := time.Now()
	*phase += now.Sub(s.lapAt).Seconds()
	s.lapAt = now
}

// minWorkers resolves the configured live-worker floor: default 1, -1 when
// degradation is disabled.
func (s *Session) minWorkers() int {
	if s.cfg.MinWorkers < 0 {
		return -1
	}
	if s.cfg.MinWorkers == 0 {
		return 1
	}
	return s.cfg.MinWorkers
}

// NoWorkersError reports a stage that found no live worker to run on, or
// a live count below the configured floor at an iteration boundary. The
// remote source treats it as the trigger for graceful degradation
// (MinWorkers permitting); every other session error remains fatal.
type NoWorkersError struct {
	Stage uint64
	Live  int
	Floor int
}

func (e *NoWorkersError) Error() string {
	if e.Live == 0 {
		return fmt.Sprintf("dist: no live workers (stage %d)", e.Stage)
	}
	return fmt.Sprintf("dist: %d live workers below floor %d (stage %d)", e.Live, e.Floor, e.Stage)
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// countingConn counts real bytes on the wire into the session totals and
// carries the chaos frame-corruption trigger: when corrupt is armed, the
// last byte of the next write batch is flipped before it reaches the
// socket, so the receiver's CRC32-C must catch it.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Int64
	corrupt    atomic.Bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if len(p) > 0 && c.corrupt.CompareAndSwap(true, false) {
		q := append([]byte(nil), p...)
		q[len(q)-1] ^= 0x20
		p = q
	}
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// NewSession dials every worker, performs the handshake, and starts the
// reader, writer, and heartbeat goroutines. t is the coordinator's
// resident tensor (the source of shards and re-sends); rank is the
// decomposition rank.
func NewSession(t *tensor.COO, rank int, cfg Config) (*Session, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	if cfg.Kills != nil && len(cfg.Kills) != len(cfg.Addrs) {
		return nil, fmt.Errorf("dist: %d kill hooks for %d workers", len(cfg.Kills), len(cfg.Addrs))
	}
	s := &Session{
		lapAt:   time.Now(),
		cfg:     cfg,
		t:       t,
		rank:    rank,
		resultc: make(chan resMsg, 8*len(cfg.Addrs)+32),
		deathc:  make(chan int, len(cfg.Addrs)),
		rejoinc: make(chan *remote, len(cfg.Addrs)),
		closed:  make(chan struct{}),
	}
	s.stats.Workers = len(cfg.Addrs)
	for slot, addr := range cfg.Addrs {
		r, err := s.connect(slot, addr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dist: worker %d (%s): %w", slot, addr, err)
		}
		s.remotes = append(s.remotes, r)
	}
	for _, r := range s.remotes {
		go s.readLoop(r)
		go s.writeLoop(r)
		go s.heartbeat(r)
	}
	s.lap(&s.stats.Phases.Connect)
	return s, nil
}

// connect dials and handshakes one worker under the shared retry policy
// (a listener that comes up late, or a partitioned worker that is back,
// still joins). Safe to call off the solver goroutine: it touches only
// immutable session state and atomics.
func (s *Session) connect(slot int, addr string) (*remote, error) {
	conn, err := DialRetry(addr, dialTimeout, s.cfg.Retry, s.closed)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn, sent: &s.bytesSent, recv: &s.bytesRecv}
	r := &remote{
		slot:   slot,
		addr:   addr,
		conn:   cc,
		cc:     cc,
		br:     bufio.NewReaderSize(cc, 1<<16),
		bw:     bufio.NewWriterSize(cc, 1<<16),
		outbox: make(chan outFrame, 64),
		gone:   make(chan struct{}),
		wdone:  make(chan struct{}),
		shards: map[shardKey]*tensor.COO{},
	}
	if s.cfg.Kills != nil {
		r.kill = s.cfg.Kills[slot]
	}
	r.alive.Store(true)
	r.lastPong.Store(time.Now().UnixNano())

	var flags uint8
	if s.cfg.UseCSF {
		flags |= HelloUseCSF
	}
	hello := &Hello{
		Version: ProtocolVersion,
		Flags:   flags,
		Order:   s.t.Order(),
		Rank:    s.rank,
		Dims:    s.t.Dims,
		Worker:  slot,
		Workers: len(s.cfg.Addrs),
	}
	// The handshake is written and read synchronously, before the writer
	// and reader goroutines start.
	if err := WriteFrame(r.bw, MsgHello, EncodeHello(hello)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := r.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	mt, payload, err := ReadFrame(r.br)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	switch mt {
	case MsgHelloAck:
		ack, err := DecodeHello(payload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if ack.Version != ProtocolVersion {
			conn.Close()
			return nil, fmt.Errorf("protocol version mismatch: worker %d, coordinator %d", ack.Version, ProtocolVersion)
		}
	case MsgErr:
		e, derr := DecodeErr(payload)
		conn.Close()
		if derr != nil {
			return nil, derr
		}
		return nil, errors.New(e.Msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("handshake: unexpected %v frame", mt)
	}
	return r, nil
}

// enqueue queues one frame for a worker's writer goroutine. It blocks only
// when the queue is full and the worker is draining; it fails fast when the
// worker is dead or the session is closing.
func (s *Session) enqueue(r *remote, t MsgType, payload []byte) error {
	if !r.alive.Load() {
		return fmt.Errorf("dist: worker %d is down", r.slot)
	}
	select {
	case r.outbox <- outFrame{t: t, payload: payload}:
		return nil
	case <-r.gone:
		return fmt.Errorf("dist: worker %d is down", r.slot)
	case <-s.closed:
		return fmt.Errorf("dist: session closed")
	}
}

// writeLoop drains one worker's outbox onto its socket, batching flushes.
// On session close it drains what is queued and appends a Shutdown frame.
func (s *Session) writeLoop(r *remote) {
	defer close(r.wdone)
	write := func(f outFrame) bool {
		if err := WriteFrame(r.bw, f.t, f.payload); err != nil {
			s.markDead(r, fmt.Sprintf("write: %v", err))
			return false
		}
		return true
	}
	flush := func() bool {
		if err := r.bw.Flush(); err != nil {
			s.markDead(r, fmt.Sprintf("flush: %v", err))
			return false
		}
		return true
	}
	for {
		select {
		case f := <-r.outbox:
			if !write(f) {
				return
			}
			// Batch whatever else is queued before paying for a flush.
			for drained := false; !drained; {
				select {
				case f := <-r.outbox:
					if !write(f) {
						return
					}
				default:
					drained = true
				}
			}
			if !flush() {
				return
			}
		case <-r.gone:
			return
		case <-s.closed:
			for drained := false; !drained; {
				select {
				case f := <-r.outbox:
					if !write(f) {
						return
					}
				default:
					drained = true
				}
			}
			if write(outFrame{t: MsgShutdown}) {
				flush()
			}
			return
		}
	}
}

// markDead declares a worker lost exactly once: the connection is closed
// (unblocking its reader and any in-flight write), queued senders are
// released, and the death is queued for the dispatch loop.
func (s *Session) markDead(r *remote, reason string) {
	r.deadOnce.Do(func() {
		r.alive.Store(false)
		r.conn.Close()
		close(r.gone)
		s.logf("dist: worker %d (%s) lost: %s", r.slot, r.addr, reason)
		select {
		case s.deathc <- r.slot:
		default: // deathc is sized for one death per worker; drop is impossible
		}
	})
}

func (s *Session) readLoop(r *remote) {
	for {
		mt, payload, err := ReadFrame(r.br)
		if err != nil {
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				// Line corruption: frame boundaries can no longer be
				// trusted, so the connection resets; the death/rejoin
				// machinery retries the lost work.
				s.corruptRecvd.Add(1)
			}
			if err != io.EOF {
				s.markDead(r, err.Error())
			} else {
				s.markDead(r, "connection closed")
			}
			return
		}
		switch mt {
		case MsgPong:
			r.lastPong.Store(time.Now().UnixNano())
		case MsgResult:
			res, err := DecodeResult(payload)
			if err != nil {
				s.markDead(r, err.Error())
				return
			}
			select {
			case s.resultc <- resMsg{slot: r.slot, res: res}:
			case <-s.closed:
				return
			}
		case MsgErr:
			e, err := DecodeErr(payload)
			if err != nil {
				s.markDead(r, err.Error())
				return
			}
			select {
			case s.resultc <- resMsg{slot: r.slot, rerr: e}:
			case <-s.closed:
				return
			}
		default:
			s.markDead(r, fmt.Sprintf("unexpected %v frame", mt))
			return
		}
	}
}

func (s *Session) heartbeat(r *remote) {
	tick := time.NewTicker(heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-tick.C:
		}
		if !r.alive.Load() {
			return
		}
		// Non-blocking: when the outbox is saturated with bulk frames the
		// connection is demonstrably draining, so skip the probe (and the
		// timeout check, which would be measuring our own backlog).
		select {
		case r.outbox <- outFrame{t: MsgPing}:
		case <-r.gone:
			return
		default:
			continue
		}
		silent := time.Since(time.Unix(0, r.lastPong.Load()))
		if silent > heartbeatTimeout {
			s.markDead(r, fmt.Sprintf("heartbeat timeout (%v silent)", silent.Round(time.Millisecond)))
			return
		}
	}
}

// Alive returns how many workers are still usable.
func (s *Session) Alive() int {
	n := 0
	for _, r := range s.remotes {
		if r.alive.Load() {
			n++
		}
	}
	return n
}

// KillWorker forcibly removes a worker slot: the external kill hook when
// present (terminating a forked process), otherwise severing the
// connection. Used by chaos-plan crashes and tests.
func (s *Session) KillWorker(slot int) {
	if slot < 0 || slot >= len(s.remotes) {
		return
	}
	r := s.remotes[slot]
	if r.kill != nil {
		r.kill()
	}
	s.markDead(r, "killed")
}

// PartitionWorker severs a worker's connection WITHOUT the kill hook: the
// process survives, so — unlike KillWorker — the rejoin loop can actually
// get it back. Used by chaos NetPartition events and tests.
func (s *Session) PartitionWorker(slot int) {
	if slot < 0 || slot >= len(s.remotes) {
		return
	}
	s.markDead(s.remotes[slot], "partitioned")
}

// CorruptNextFrame arms a one-shot bit flip on the next write batch to a
// worker. The worker's CRC32-C check must reject the damaged frame and
// reset the connection. Used by chaos FrameCorrupt events and tests.
func (s *Session) CorruptNextFrame(slot int) {
	if slot < 0 || slot >= len(s.remotes) {
		return
	}
	s.remotes[slot].cc.corrupt.Store(true)
}

// Stats returns the real measurements so far.
func (s *Session) Stats() Stats {
	st := s.stats
	st.BytesSent = s.bytesSent.Load()
	st.BytesRecv = s.bytesRecv.Load()
	st.CorruptFrames = int(s.corruptRecvd.Load())
	st.WorkersAlive = s.Alive()
	return st
}

// Close shuts the session down: writer goroutines drain and append a
// Shutdown frame to live workers, every connection is closed, and
// background goroutines stop.
func (s *Session) Close() {
	select {
	case <-s.closed:
		return
	default:
	}
	close(s.closed)
	deadline := time.After(250 * time.Millisecond)
	for _, r := range s.remotes {
		if r == nil {
			continue
		}
		if r.alive.Load() {
			select {
			case <-r.wdone:
			case <-deadline:
			}
		}
		r.conn.Close()
	}
	// Rejoined connections that were handed off but never installed.
	for {
		select {
		case r := <-s.rejoinc:
			r.conn.Close()
		default:
			return
		}
	}
}

// --- communication plan ---

// shipShards is session start's one pass over the nonzeros. Per worker, on
// the pool, range k of every mode is encoded straight from the mode index
// into its frame and queued for slot k — and, unless delta broadcasting is
// off, the same pass freezes the communication plan: for every worker and
// mode, the set of factor rows its resident work reads, which is the rows
// its shards of the OTHER modes reference (set as the encoder writes them).
// Subsequent FactorUpdate calls ship only touched rows that changed. A
// failed send marks the worker dead; the MTTKRP prep hook re-ships wherever
// the task lands.
func (s *Session) shipShards(ranges [][]tensor.NNZRange) {
	order := s.t.Order()
	W := len(s.remotes)
	if !s.cfg.noDelta {
		for _, r := range s.remotes {
			r.touched = make([]bitset, order)
			for m := range r.touched {
				r.touched[m] = newBitset(s.t.Dims[m])
			}
			r.prev = make([]*la.Dense, order)
		}
	}
	// queued[k][m] is the payload size of the mode-m shard queued for slot
	// k; the solver-goroutine bookkeeping is settled from it after the join.
	queued := make([][]int, W)
	par.Run(0, W, func(k int) {
		r := s.remotes[k]
		queued[k] = make([]int, order)
		for m := 0; m < order && k < len(ranges[m]); m++ {
			payload := shardFrame(s.t, m, ranges[m][k], r.touched)
			if s.enqueue(r, MsgShard, payload) == nil {
				queued[k][m] = len(payload)
			}
		}
	})
	for k, r := range s.remotes {
		for m, n := range queued[k] {
			if n > 0 {
				s.stats.ShardBytes += int64(n)
				r.shards[shardKey{m, ranges[m][k].RowLo, ranges[m][k].RowHi}] = s.t
			}
		}
	}
	if s.cfg.noDelta {
		return
	}
	// Freeze pristine copies before any death merges widen the live sets:
	// a rejoining worker is re-admitted with exactly its original plan.
	s.frozen = make([][]bitset, W)
	for k, r := range s.remotes {
		s.frozen[k] = make([]bitset, order)
		for m := range r.touched {
			s.frozen[k][m] = append(bitset(nil), r.touched[m]...)
		}
	}
}

// rowBitsEqual compares two rows bit for bit (Float64bits, so NaN payloads
// and signed zeros are compared exactly).
func rowBitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FactorUpdate ships the new state of factor `mode` to every live worker:
// the full matrix when delta broadcasting is off or the worker holds no
// prior state, otherwise only its touched rows whose bits changed since
// the last send (falling back to the full matrix when the delta would not
// be smaller). Enqueue-only — the per-worker writers overlap the actual
// socket traffic with whatever the coordinator does next.
func (s *Session) FactorUpdate(mode int, m *la.Dense) {
	var full []byte // lazily encoded once, shared across workers
	encodeFull := func() []byte {
		if full == nil {
			full = EncodeFactor(&Factor{Mode: mode, M: m})
		}
		return full
	}
	for _, r := range s.remotes {
		if !r.alive.Load() {
			continue
		}
		if s.cfg.noDelta || r.prev == nil {
			if s.enqueue(r, MsgFactor, encodeFull()) == nil {
				s.stats.FactorBytes += int64(len(full))
			}
			continue
		}
		if r.prev[mode] == nil {
			if s.enqueue(r, MsgFactor, encodeFull()) == nil {
				s.stats.FactorBytes += int64(len(full))
				r.prev[mode] = m.Clone()
			}
			continue
		}
		prev := r.prev[mode]
		tb := r.touched[mode]
		var idxs []int
		for i := 0; i < m.Rows; i++ {
			if tb.get(i) && !rowBitsEqual(prev.Row(i), m.Row(i)) {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		if len(idxs)*(4+8*m.Cols) >= m.Rows*8*m.Cols {
			if s.enqueue(r, MsgFactor, encodeFull()) == nil {
				s.stats.FactorBytes += int64(len(full))
				r.prev[mode] = m.Clone()
			}
			continue
		}
		fd := &FactorDelta{Mode: mode, Cols: m.Cols, Indices: idxs,
			Rows: make([]float64, 0, len(idxs)*m.Cols)}
		for _, i := range idxs {
			fd.Rows = append(fd.Rows, m.Row(i)...)
		}
		payload := EncodeFactorDelta(fd)
		if s.enqueue(r, MsgFactorDelta, payload) == nil {
			s.stats.DeltaFrames++
			s.stats.FactorBytes += int64(len(payload))
			for _, i := range idxs {
				copy(prev.Row(i), m.Row(i))
			}
		}
	}
}

// ensureCurrent guarantees a worker holds the current bits of factor
// `mode` before a task that reads it lands somewhere other than its home:
// a full-factor resync unless the worker is already current on every row
// of its touched set (the invariant delta broadcasts maintain; a task's
// read rows are always inside the set, because a death merges the dead
// worker's sets into the substitute before its tasks are re-dispatched).
// Deltas are never used here — a substitute may hold stale rows from
// before its sets were widened, and the contract is that a delta is only
// sent against state the worker is known to hold.
func (s *Session) ensureCurrent(r *remote, mode int, m *la.Dense) error {
	if s.cfg.noDelta {
		return nil // every live worker already got the full broadcast
	}
	if prev := r.prev[mode]; prev != nil && prev.Rows == m.Rows && prev.Cols == m.Cols {
		tb := r.touched[mode]
		current := true
		for i := 0; i < m.Rows; i++ {
			if tb.get(i) && !rowBitsEqual(prev.Row(i), m.Row(i)) {
				current = false
				break
			}
		}
		if current {
			return nil
		}
	}
	payload := EncodeFactor(&Factor{Mode: mode, M: m})
	if err := s.enqueue(r, MsgFactor, payload); err != nil {
		return err
	}
	s.stats.FactorBytes += int64(len(payload))
	s.stats.Resyncs++
	r.prev[mode] = m.Clone()
	return nil
}

// --- stages ---

// stageTask is one task of a fan-out round plus its scheduling state.
type stageTask struct {
	task *Task
	home int // preferred worker slot (the one holding the resident state)
	// attempts counts dispatches (first send + every reassignment); the
	// session aborts a task that exceeds the retry cap instead of letting
	// a flapping worker bounce it forever.
	attempts int
	// prep readies a target worker for the task: re-sending a missing
	// shard, resyncing a stale factor. Called before every (re)dispatch
	// with the chosen target.
	prep func(r *remote) error
	// onResult consumes the (first) result.
	onResult func(res *Result) error

	assigned int
	done     bool
}

// stage is the fan-out round in flight; the event pump routes results to
// it by task ID and reassigns the tasks of dead workers.
type stage struct {
	seq       uint64
	tasks     []*stageTask
	byID      map[uint64]*stageTask
	remaining int
}

// pick returns the live worker for a task: its home slot when alive, else
// the next live slot scanning upward (deterministic, so reruns with the
// same death schedule place tasks identically).
func (s *Session) pick(home int) *remote {
	n := len(s.remotes)
	for i := 0; i < n; i++ {
		r := s.remotes[(home+i)%n]
		if r.alive.Load() {
			return r
		}
	}
	return nil
}

// maxTaskAttempts is the per-task dispatch cap: the policy's attempt
// budget plus one slot-scan's worth of headroom, so a long-lived session
// with many (recovered) deaths is not falsely aborted, but a task that
// keeps landing on dying workers is.
func (s *Session) maxTaskAttempts() int {
	return s.cfg.Retry.withDefaults().MaxAttempts + len(s.remotes)
}

func (s *Session) dispatch(st *stageTask) error {
	for {
		r := s.pick(st.assigned)
		if r == nil {
			return &NoWorkersError{Stage: s.stageSeq}
		}
		if st.attempts++; st.attempts > s.maxTaskAttempts() {
			return fmt.Errorf("dist: task %d (%v) exceeded %d dispatch attempts",
				st.task.ID, st.task.Kind, s.maxTaskAttempts())
		}
		st.assigned = r.slot
		if st.prep != nil {
			if err := st.prep(r); err != nil {
				if !r.alive.Load() {
					continue // prep's send hit a dead worker; try the next one
				}
				return err
			}
		}
		if err := s.enqueue(r, MsgTask, EncodeTask(st.task)); err != nil {
			if !r.alive.Load() {
				continue
			}
			return err
		}
		return nil
	}
}

// runStage runs one fan-out round: chaos faults due at this stage fire
// first, pending rejoins and deaths are consumed, every task is queued to
// its home worker (or a live substitute), and events are pumped until every
// task has its result. Results may arrive in any order; each lands in its
// own rows, so completion order never affects the arithmetic.
func (s *Session) runStage(tasks []*stageTask) error {
	s.stageSeq++
	s.stats.Stages++
	if s.cfg.Plan != nil {
		events := s.cfg.Plan.TakeEvents(s.stageSeq,
			chaos.NodeCrash, chaos.NetPartition, chaos.FrameCorrupt)
		for _, ev := range events {
			switch ev.Kind {
			case chaos.NodeCrash:
				s.logf("dist: chaos kills worker %d at stage %d", ev.Node, s.stageSeq)
				s.KillWorker(ev.Node)
			case chaos.NetPartition:
				s.logf("dist: chaos partitions worker %d at stage %d", ev.Node, s.stageSeq)
				s.PartitionWorker(ev.Node)
			case chaos.FrameCorrupt:
				s.logf("dist: chaos corrupts next frame to worker %d at stage %d", ev.Node, s.stageSeq)
				s.CorruptNextFrame(ev.Node)
			}
		}
	}
	s.drainRejoins()
	s.drainDeaths()

	stg := &stage{
		seq:       s.stageSeq,
		tasks:     tasks,
		byID:      make(map[uint64]*stageTask, len(tasks)),
		remaining: len(tasks),
	}
	for _, st := range tasks {
		s.nextTask++
		st.task.ID = s.nextTask
		st.assigned = st.home
		stg.byID[st.task.ID] = st
	}
	s.stage = stg
	defer func() { s.stage = nil }()
	for _, st := range tasks {
		if err := s.dispatch(st); err != nil {
			s.setFatal(err)
			break
		}
	}
	if s.cfg.AfterDispatch != nil {
		s.cfg.AfterDispatch(stg.seq)
	}
	for stg.remaining > 0 && s.fatal == nil {
		select {
		case slot := <-s.deathc:
			s.handleDeath(slot)
		case r := <-s.rejoinc:
			s.handleRejoin(r)
		case m := <-s.resultc:
			s.handleResult(m)
		case <-s.closed:
			s.setFatal(fmt.Errorf("dist: session closed during stage %d", stg.seq))
		}
	}
	return s.fatal
}

func (s *Session) setFatal(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
}

// drainDeaths consumes deaths that occurred while no stage was waiting
// (broadcast failures, heartbeat timeouts between stages).
func (s *Session) drainDeaths() {
	for {
		select {
		case slot := <-s.deathc:
			s.handleDeath(slot)
		default:
			return
		}
	}
}

// drainRejoins installs workers that reconnected while no stage was
// waiting, so a rejoin between iterations takes effect before the next
// dispatch round.
func (s *Session) drainRejoins() {
	for {
		select {
		case r := <-s.rejoinc:
			s.handleRejoin(r)
		default:
			return
		}
	}
}

// handleDeath processes one worker death: its touched-row sets merge into
// its deterministic substitute (so future deltas keep the substitute
// current for the inherited work), and its unfinished tasks in the stage in
// flight are re-dispatched starting one past the dead slot.
func (s *Session) handleDeath(slot int) {
	s.stats.WorkerDeaths++
	dead := s.remotes[slot]
	s.spawnRejoin(slot)
	if dead.touched != nil {
		if sub := s.pick((slot + 1) % len(s.remotes)); sub != nil && sub.touched != nil {
			for m := range sub.touched {
				sub.touched[m].or(dead.touched[m])
			}
		}
	}
	if s.stage == nil {
		return
	}
	for _, st := range s.stage.tasks {
		if st.done || st.assigned != slot {
			continue
		}
		s.stats.Reassignments++
		// Restart the scan one past the dead slot so the substitute choice
		// is deterministic.
		st.assigned = (slot + 1) % len(s.remotes)
		if err := s.dispatch(st); err != nil {
			s.setFatal(err)
			return
		}
	}
}

// --- rejoin ---

// TrackFactors registers the solver's live factor matrices so a rejoining
// worker can be brought current at install time. The slice and matrices
// are aliased, not copied — the solver mutates them in place and the
// session reads them only from the solver goroutine.
func (s *Session) TrackFactors(factors []*la.Dense) {
	s.curFactors = factors
}

// spawnRejoin starts the background redial loop for a dead slot: connect
// attempts under the shared policy, an ever-growing (capped, jittered)
// delay between rounds, until the worker answers the handshake again or
// the session closes. The fresh remote is handed to the solver goroutine
// over rejoinc; it is installed at the next event-pump tick.
func (s *Session) spawnRejoin(slot int) {
	if s.cfg.DisableRejoin {
		return
	}
	addr := s.cfg.Addrs[slot]
	p := s.cfg.Retry.withDefaults()
	seed := rng.Hash64(rng.HashAny(addr), uint64(slot), 0x7e01)
	go func() {
		for attempt := 1; ; attempt++ {
			// Cap the exponent so Delay stays O(1) and pinned at p.Max.
			da := attempt
			if da > 20 {
				da = 20
			}
			t := time.NewTimer(p.Delay(seed, da))
			select {
			case <-t.C:
			case <-s.closed:
				t.Stop()
				return
			}
			r, err := s.connect(slot, addr)
			if err == nil {
				select {
				case s.rejoinc <- r:
				case <-s.closed:
					r.conn.Close()
				}
				return
			}
			select {
			case <-s.closed:
				return
			default:
			}
		}
	}()
}

// handleRejoin re-admits a reconnected worker (solver goroutine only): a
// brand-new remote replaces the dead one in its slot, with a pristine
// clone of the slot's frozen touched-row plan and no resident state — the
// worker lost everything with its session, so shards re-ship lazily via
// the prep hooks and the current factors are shipped in full right here.
// From the next dispatch on, pick routes the slot's home tasks back to it.
func (s *Session) handleRejoin(nr *remote) {
	old := s.remotes[nr.slot]
	if old.alive.Load() {
		nr.conn.Close() // stale rejoin for a slot that is somehow live
		return
	}
	if s.frozen != nil {
		order := s.t.Order()
		nr.touched = make([]bitset, order)
		for m := range nr.touched {
			nr.touched[m] = append(bitset(nil), s.frozen[nr.slot][m]...)
		}
		nr.prev = make([]*la.Dense, order)
	}
	s.remotes[nr.slot] = nr
	go s.readLoop(nr)
	go s.writeLoop(nr)
	go s.heartbeat(nr)
	for m, f := range s.curFactors {
		if f == nil {
			continue
		}
		payload := EncodeFactor(&Factor{Mode: m, M: f})
		if s.enqueue(nr, MsgFactor, payload) == nil {
			s.stats.FactorBytes += int64(len(payload))
			if nr.prev != nil {
				nr.prev[m] = f.Clone()
			}
		}
	}
	s.stats.Rejoins++
	s.logf("dist: worker %d (%s) rejoined at stage %d", nr.slot, nr.addr, s.stageSeq)
}

// handleResult routes one worker result to its in-flight task.
func (s *Session) handleResult(m resMsg) {
	if m.rerr != nil {
		s.setFatal(m.rerr)
		return
	}
	if s.stage == nil {
		return
	}
	st, ok := s.stage.byID[m.res.ID]
	switch {
	case !ok:
		return // a result from a finished stage, after a reassignment race
	case st.done:
		return // duplicate after a reassignment race; identical bits either way
	case m.slot != st.assigned:
		return // stale result from a slot whose task was reassigned
	}
	st.done = true
	s.stage.remaining--
	if st.onResult != nil {
		if err := st.onResult(m.res); err != nil {
			s.setFatal(err)
		}
	}
}

// shardFrame encodes the mode-`mode` shard of t's rows [rg.RowLo, rg.RowHi),
// which the mode index holds at positions [rg.Lo, rg.Hi), from t's entries
// in place (see encodeShard for touched).
func shardFrame(t *tensor.COO, mode int, rg tensor.NNZRange, touched []bitset) []byte {
	src := &Shard{Mode: mode, Order: t.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi, Entries: t.Entries}
	return encodeShard(src, t.ModeIndex(mode).Perm[rg.Lo:rg.Hi], t.Dims, touched)
}

// sendShard queues x's shard under key for one worker, where it replaces
// whatever is resident under the same (mode, row range) key, and records
// which tensor the connection now holds there. Per-epoch sampled shards
// change contents under a stable key.
func (s *Session) sendShard(r *remote, key shardKey, x *tensor.COO, payload []byte) error {
	if err := s.enqueue(r, MsgShard, payload); err != nil {
		return err
	}
	s.stats.ShardBytes += int64(len(payload))
	r.shards[key] = x
	return nil
}
