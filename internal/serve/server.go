package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/par"
)

// Typed serving errors. HTTP and load-generation layers map these to
// status codes / shed counters; errors.Is works through wrapping.
var (
	// ErrOverloaded is returned immediately — instead of blocking — when
	// the bounded request queue is full. Shedding keeps latency bounded
	// under overload; clients retry with backoff.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrClosed is returned for requests after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrDraining is returned for new requests after Drain has started:
	// the server finishes what it already accepted and takes nothing else.
	// A fleet router treats it like a dead replica and routes around.
	ErrDraining = errors.New("serve: draining, not accepting new queries")
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// MaxBatch bounds how many already-queued ranked queries one executor
	// pass coalesces into a single blocked scan. Default 32.
	MaxBatch int
	// QueueDepth bounds the request queue; a full queue sheds with
	// ErrOverloaded. Default 1024.
	QueueDepth int
	// CacheSize bounds the LRU result cache in entries; 0 selects the
	// default 4096, negative disables caching.
	CacheSize int
	// Workers bounds the fan-out of one batched scan; <= 0 selects all
	// cores.
	Workers int
	// Timeout, when positive, caps every query's wait (submission +
	// execution); exceeding it returns context.DeadlineExceeded. Callers
	// can always pass a tighter per-request context.
	Timeout time.Duration
	// Approx serves full-mode TopK queries from the norm-pruned candidate
	// list (Model.BuildApprox runs on load, swap, and reload) instead of
	// scanning the whole mode. Range-restricted shard queries and Similar
	// stay exact. See approx.go for the recall/latency trade.
	Approx bool
	// ApproxCandidates caps how many candidates one approximate TopK scan
	// scores; 0 selects DefaultApproxCandidates, negative disables the cap
	// (pure Cauchy–Schwarz pruning, exact but unbounded on flat norms).
	ApproxCandidates int
	// Logf, when non-nil, receives operational log lines (reload
	// failures, corruption fallbacks).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	return c
}

// Stats is a point-in-time snapshot of serving counters (see /statsz).
type Stats struct {
	ModelVersion uint64  `json:"model_version"`
	ModelIter    int     `json:"model_iter"`
	ModelAgeSecs float64 `json:"model_age_secs"` // seconds since the serving model was loaded/swapped
	UptimeSecs   float64 `json:"uptime_secs"`

	Predicts uint64 `json:"predicts"`
	TopKs    uint64 `json:"topks"`
	Similars uint64 `json:"similars"`

	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	MaxBatch        uint64 `json:"max_batch"` // largest batch executed

	Shed       uint64 `json:"shed"`
	Timeouts   uint64 `json:"timeouts"`
	BadRequest uint64 `json:"bad_requests"`

	// Inflight is the number of queries accepted but not yet answered;
	// Draining reports whether the server has stopped taking new ones. A
	// rolling reload waits for Inflight == 0 before swapping the model.
	Inflight int64 `json:"inflight"`
	Draining bool  `json:"draining"`

	// ApproxQueries counts TopK queries answered from the norm-pruned
	// candidate list; the Scanned/Exact row counters show how much of the
	// full scan the pruning avoided (Scanned <= Exact always).
	ApproxQueries     uint64 `json:"approx_queries"`
	ApproxRowsScanned uint64 `json:"approx_rows_scanned"`
	ApproxRowsExact   uint64 `json:"approx_rows_exact"`

	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`

	Reloads      uint64 `json:"reloads"`
	ReloadErrors uint64 `json:"reload_errors"`
	// ReloadFallbacks counts reloads that served an older retained
	// checkpoint version because the live file was corrupt on disk.
	ReloadFallbacks uint64 `json:"reload_fallbacks"`
}

// result answers one request, with the model snapshot that computed it.
type result struct {
	scored []Scored
	model  *Model
	err    error
}

// request is one ranked query on its way through the executor. Its query
// is normalized (sorted exclude set, resolved budget); exkey and condkey
// are the canonical strings of its exclude set and of its conditioning
// coordinates after the first, which its cache key embeds.
type request struct {
	q              Query
	exkey, condkey string
	ctx            context.Context
	out            chan result // buffered; executor never blocks sending
}

// Server serves queries against an atomically swappable Model. Ranked
// queries (TopK, Similar) flow through a bounded queue into a
// micro-batching executor; Predict reads the model pointer directly (it is
// O(order*R) — cheaper than any queue handoff).
type Server struct {
	cfg     Config
	model   atomic.Pointer[Model]
	version atomic.Uint64
	reqs    chan *request
	cache   *lruCache
	start   time.Time

	closeOnce sync.Once
	closed    chan struct{}
	done      sync.WaitGroup

	loadedAt atomic.Int64 // unix nanos of the last model store (staleness clock)

	draining atomic.Bool
	inflight atomic.Int64

	predicts, topks, similars      atomic.Uint64
	batches, batchedReqs, maxBatch atomic.Uint64
	shed, timeouts, badReqs        atomic.Uint64
	cacheHits, cacheMisses         atomic.Uint64
	reloads, reloadErrs            atomic.Uint64
	reloadFallbacks                atomic.Uint64
	approxQueries, approxScanned   atomic.Uint64
	approxExact                    atomic.Uint64
	watchMu                        sync.Mutex
	watchMTime                     time.Time
	watchSize                      int64
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// New starts a Server for m. Callers must Close it to stop the executor.
func New(m *Model, cfg Config) (*Server, error) {
	s, err := newServer(m, cfg)
	if err != nil {
		return nil, err
	}
	s.done.Add(1)
	go s.dispatch()
	return s, nil
}

// newServer builds the server without starting the executor goroutine.
// Tests use it directly to exercise queue behaviour (shedding) without
// racing the dispatcher, or to queue requests before it starts.
func newServer(m *Model, cfg Config) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reqs:   make(chan *request, cfg.QueueDepth),
		cache:  newLRUCache(cfg.CacheSize),
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	m.Version = s.version.Add(1)
	if cfg.Approx && !m.HasApprox() {
		m.BuildApprox(cfg.Workers)
	}
	s.model.Store(m)
	s.loadedAt.Store(time.Now().UnixNano())
	return s, nil
}

// Model returns the current model snapshot.
func (s *Server) Model() *Model { return s.model.Load() }

// Dims returns the current model's mode sizes (part of the Querier
// surface the load generator drives).
func (s *Server) Dims() []int { return s.model.Load().Dims }

// Swap atomically publishes a new model. In-flight queries finish against
// the snapshot they started with; subsequent queries — and cache keys — use
// the new version.
func (s *Server) Swap(m *Model) {
	m.Version = s.version.Add(1)
	if s.cfg.Approx && !m.HasApprox() {
		m.BuildApprox(s.cfg.Workers)
	}
	s.model.Store(m)
	s.loadedAt.Store(time.Now().UnixNano())
	s.reloads.Add(1)
}

// Reload loads the checkpoint at path and swaps it in. A live file that is
// corrupt on disk (torn write, bit rot — surfaced by internal/ckpt as a
// typed *ckpt.CorruptError) does not leave the server stuck: Reload falls
// back to the newest intact retained version (stream.Publisher keeps the
// last few next to the live path), logs the skip, and counts the fallback
// — visible on /healthz and /statsz. On any other error, or when no
// retained version is intact, the current model keeps serving and the
// error is counted.
func (s *Server) Reload(path string) error {
	m, err := LoadCheckpoint(path)
	var ce *ckpt.CorruptError
	if errors.As(err, &ce) {
		s.logf("serve: %v; falling back to retained versions", err)
		if fm, fv, ferr := loadNewestRetained(path); ferr == nil {
			s.logf("serve: serving retained version %d of %s instead", fv, path)
			s.reloadFallbacks.Add(1)
			s.Swap(fm)
			return nil
		}
	}
	if err != nil {
		s.reloadErrs.Add(1)
		return err
	}
	s.Swap(m)
	return nil
}

// loadNewestRetained scans the retained versions next to path newest-first
// and returns the first one that reads and validates.
func loadNewestRetained(path string) (*Model, int, error) {
	vs, err := ckpt.ListVersions(path)
	if err != nil {
		return nil, 0, err
	}
	for i := len(vs) - 1; i >= 0; i-- {
		if m, err := LoadCheckpoint(ckpt.VersionPath(path, vs[i])); err == nil {
			return m, vs[i], nil
		}
	}
	return nil, 0, fmt.Errorf("serve: no intact retained version of %s", path)
}

// Watch polls path every interval and hot-reloads the model whenever the
// file's mtime or size changes — which a training run's periodic
// Options.CheckpointPath writes do. Checkpoint writes are atomic renames,
// so a poll never observes a torn file. Watch returns immediately; the
// watcher stops when ctx is cancelled or the server closes.
func (s *Server) Watch(ctx context.Context, path string, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if st, err := os.Stat(path); err == nil {
		s.watchMu.Lock()
		s.watchMTime, s.watchSize = st.ModTime(), st.Size()
		s.watchMu.Unlock()
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.closed:
				return
			case <-t.C:
				st, err := os.Stat(path)
				if err != nil {
					continue
				}
				s.watchMu.Lock()
				changed := !st.ModTime().Equal(s.watchMTime) || st.Size() != s.watchSize
				if changed {
					s.watchMTime, s.watchSize = st.ModTime(), st.Size()
				}
				s.watchMu.Unlock()
				if changed {
					s.Reload(path) // on error: counted, old model keeps serving
				}
			}
		}
	}()
}

// Close stops the executor and watcher. Queued requests are failed with
// ErrClosed; Close blocks until the executor drains.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.done.Wait()
}

// Drain flips the server into draining mode — new queries are rejected
// with ErrDraining — and returns once every already-accepted query has
// been answered, so a Close after it (graceful shutdown) fails no query
// that was accepted.
func (s *Server) Drain() {
	s.draining.Store(true)
	for s.inflight.Load() != 0 {
		time.Sleep(200 * time.Microsecond) // a poll interval: no event marks the last answer
	}
}

// Draining reports whether the server is refusing new queries.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	m := s.model.Load()
	return Stats{
		ModelVersion:      m.Version,
		ModelIter:         m.Iter,
		ModelAgeSecs:      s.ModelAge().Seconds(),
		UptimeSecs:        time.Since(s.start).Seconds(),
		Predicts:          s.predicts.Load(),
		TopKs:             s.topks.Load(),
		Similars:          s.similars.Load(),
		Batches:           s.batches.Load(),
		BatchedRequests:   s.batchedReqs.Load(),
		MaxBatch:          s.maxBatch.Load(),
		Shed:              s.shed.Load(),
		Timeouts:          s.timeouts.Load(),
		BadRequest:        s.badReqs.Load(),
		Inflight:          s.inflight.Load(),
		Draining:          s.draining.Load(),
		ApproxQueries:     s.approxQueries.Load(),
		ApproxRowsScanned: s.approxScanned.Load(),
		ApproxRowsExact:   s.approxExact.Load(),
		CacheHits:         s.cacheHits.Load(),
		CacheMisses:       s.cacheMisses.Load(),
		CacheEntries:      s.cache.len(),
		Reloads:           s.reloads.Load(),
		ReloadErrors:      s.reloadErrs.Load(),
		ReloadFallbacks:   s.reloadFallbacks.Load(),
	}
}

// ModelAge returns how long the current model has been serving — the
// operator-facing staleness signal: with a streaming trainer publishing
// versions, a growing age means the ingest → retrain → reload loop stalled.
func (s *Server) ModelAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.loadedAt.Load())
}

// Predict reconstructs one entry against the current model. It is served
// inline — no queue, no batch — because the work is a few dozen flops.
func (s *Server) Predict(ctx context.Context, idx ...int) (float64, error) {
	select {
	case <-s.closed:
		return 0, ErrClosed
	default:
	}
	if s.draining.Load() {
		return 0, ErrDraining
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	v, err := s.model.Load().Predict(idx...)
	if err != nil {
		s.badReqs.Add(1)
		return 0, err
	}
	s.predicts.Add(1)
	return v, nil
}

// Rank answers one ranked query against the current model; concurrent
// queries are coalesced into batched scans. The exclude set is normalized
// (sorted, deduplicated) before caching and execution, so a cached result
// is a pure function of the set's contents. A query is checked against
// the current model before the cache is consulted, so an invalid one
// fails whatever the cache holds. The approximate budget is
// Config.ApproxCandidates, applied with Config.Approx to every whole-mode
// TopK; a query with a Budget of its own is refused.
func (s *Server) Rank(ctx context.Context, q Query) ([]Scored, error) {
	res, _, err := s.rank(ctx, q)
	return res, err
}

// TopK is Rank of a TopK with one fixed coordinate: row of mode given.
func (s *Server) TopK(ctx context.Context, mode, given, row, k int) ([]Scored, error) {
	return s.Rank(ctx, Query{Mode: mode, Given: []Cond{{given, row}}, K: k})
}

// rank is Rank that also returns the snapshot that answered.
func (s *Server) rank(ctx context.Context, q Query) ([]Scored, *Model, error) {
	if q.Budget != 0 {
		s.badReqs.Add(1)
		return nil, nil, fmt.Errorf("serve: budget %d: a Server takes its budget from Config.ApproxCandidates", q.Budget)
	}
	q.Exclude = normalizeExclude(q.Exclude)
	if s.cfg.Approx && q.Kind == TopK && q.Range == nil {
		q.Budget = s.approxBudget()
	}
	r := &request{q: q, exkey: excludeKey(q.Exclude)}
	if len(q.Given) > 1 {
		r.condkey = fmt.Sprint(q.Given[1:])
	}
	res, m, err := s.submit(ctx, r)
	if err == nil {
		if q.Kind == Similar {
			s.similars.Add(1)
		} else {
			s.topks.Add(1)
		}
	}
	return res, m, err
}

func (r *request) cacheKey(version uint64) cacheKey {
	q := &r.q
	lo, hi := q.span()
	return cacheKey{version: version, kind: q.Kind, mode: q.Mode, anchor: q.Anchor(), k: q.K, lo: lo, hi: hi, exclude: r.exkey, conds: r.condkey}
}

// submit runs the cache fast path, then enqueues with load shedding and
// waits for the executor (or the caller's deadline). It returns the
// snapshot that answered: the executor's, or on a hit the one whose
// version keyed the entry. Requests and their channels are never reused:
// a request whose caller gave up may still be executed later.
func (s *Server) submit(ctx context.Context, r *request) ([]Scored, *Model, error) {
	select {
	case <-s.closed:
		return nil, nil, ErrClosed
	default:
	}
	if s.draining.Load() {
		return nil, nil, ErrDraining
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	m := s.model.Load()
	if err := m.validate(&r.q); err != nil {
		s.badReqs.Add(1)
		return nil, nil, err
	}
	if v, ok := s.cache.get(r.cacheKey(m.Version)); ok {
		s.cacheHits.Add(1)
		return v, m, nil
	}
	s.cacheMisses.Add(1)
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	r.ctx = ctx
	r.out = make(chan result, 1)
	select {
	case s.reqs <- r:
	default:
		s.shed.Add(1)
		return nil, nil, ErrOverloaded
	}
	select {
	case res := <-r.out:
		if res.err != nil {
			s.badReqs.Add(1)
		}
		return res.scored, res.model, res.err
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, nil, ctx.Err()
	case <-s.closed:
		return nil, nil, ErrClosed
	}
}

// dispatch is the executor loop: take one request and whatever else is
// already queued (up to MaxBatch) — never waiting for more, as requests
// queue while a scan runs — execute the batch against one model snapshot,
// repeat. On Close it fails whatever is still queued.
func (s *Server) dispatch() {
	defer s.done.Done()
	e := newExecutor(s)
	defer e.stop()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	for {
		var first *request
		select {
		case first = <-s.reqs:
		case <-s.closed:
			s.drain()
			return
		}
		batch = append(batch[:0], first)
	gather:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.reqs:
				batch = append(batch, r)
			default:
				break gather
			}
		}
		e.exec(s.model.Load(), batch)
		select {
		case <-s.closed:
			s.drain()
			return
		default:
		}
	}
}

func (s *Server) drain() {
	for {
		select {
		case r := <-s.reqs:
			r.out <- result{err: ErrClosed}
		default:
			return
		}
	}
}

// executor is the dispatcher goroutine's scan state, reused from batch to
// batch so a query allocates only its answer; its helper goroutines take
// the place of a par.Run pool, which would be allocated per scan.
type executor struct {
	s    *Server
	scan batchScan
	qs   []scanQuery
	vecs []float64 // query vectors, Components apart

	helpers    int
	wake, done chan struct{} // per scan: one receive, then one send, per woken helper
	next       atomic.Int64  // the running scan's next unclaimed block
	stopped    sync.WaitGroup
}

// newExecutor starts Workers-1 helper goroutines; stop ends them.
func newExecutor(s *Server) *executor {
	e := &executor{s: s, helpers: par.Workers(s.cfg.Workers) - 1, wake: make(chan struct{}), done: make(chan struct{})}
	e.stopped.Add(e.helpers)
	for i := 0; i < e.helpers; i++ {
		go func() {
			defer e.stopped.Done()
			for range e.wake {
				e.work()
				e.done <- struct{}{}
			}
		}()
	}
	return e
}

func (e *executor) stop() {
	close(e.wake)
	e.stopped.Wait()
}

// fanOut runs the scan on the dispatcher goroutine and on as many helpers
// as there are blocks to share; each claims blocks until none is left.
func (e *executor) fanOut() {
	e.next.Store(0)
	n := min(e.helpers, e.scan.blocks()-1)
	for i := 0; i < n; i++ {
		e.wake <- struct{}{}
	}
	e.work()
	for i := 0; i < n; i++ {
		<-e.done
	}
}

func (e *executor) work() {
	for b := int(e.next.Add(1)) - 1; b < e.scan.blocks(); b = int(e.next.Add(1)) - 1 {
		e.scan.block(b)
	}
}

// exec validates, groups (in place), and executes one batch against the
// model snapshot m. Requests whose context already expired are skipped
// (their caller has gone); invalid requests fail individually; each group
// of the rest that can share a scan (sameScan) shares one.
func (e *executor) exec(m *Model, batch []*request) {
	s := e.s
	s.batches.Add(1)
	s.batchedReqs.Add(uint64(len(batch)))
	for {
		cur := s.maxBatch.Load()
		if uint64(len(batch)) <= cur || s.maxBatch.CompareAndSwap(cur, uint64(len(batch))) {
			break
		}
	}
	live := batch[:0] // filtered in place
	for _, r := range batch {
		if r.ctx.Err() != nil {
			continue // caller already timed out; executing would be wasted work
		}
		if err := m.validate(&r.q); err != nil {
			r.out <- result{err: err}
			continue
		}
		live = append(live, r)
	}
	for len(live) > 0 { // move live[0]'s group to the front, answer it
		n, r0 := 1, live[0]
		for i := 1; i < len(live); i++ {
			if r := live[i]; sameScan(&r.q, &r0.q) {
				live[n], live[i] = r, live[n]
				n++
			}
		}
		e.group(m, live[:n])
		live = live[n:]
	}
}

// sameScan reports whether two queries can share one blocked scan: same
// kind, mode and candidate range. (Whether a query is budgeted follows
// from those: rank budgets every whole-mode TopK or none.)
func sameScan(a, b *Query) bool {
	alo, ahi := a.span()
	blo, bhi := b.span()
	return a.Kind == b.Kind && a.Mode == b.Mode && alo == blo && ahi == bhi
}

// group answers requests that share one scan (sameScan).
func (e *executor) group(m *Model, rs []*request) {
	s, mode := e.s, rs[0].q.Mode
	e.vecs = slices.Grow(e.vecs[:0], len(rs)*m.Components)[:len(rs)*m.Components]
	// Budgeted TopK takes the norm-pruned index when built; the scans are
	// a small prefix of the mode, so they run per request rather than as
	// one blocked batch scan.
	if rs[0].q.Budget > 0 && m.HasApprox() {
		for _, r := range rs {
			q := m.queryVec(e.vecs[:m.Components], &r.q)
			res, scanned := approxTopK(m.factors[mode], q, r.q.K, r.q.Exclude, m.approx[mode], r.q.Budget)
			s.approxQueries.Add(1)
			s.approxScanned.Add(uint64(scanned))
			s.approxExact.Add(uint64(m.Dims[mode]))
			s.cache.put(r.cacheKey(m.Version), res)
			r.out <- result{scored: res, model: m}
		}
		return
	}
	e.qs = slices.Grow(e.qs[:0], len(rs))[:len(rs)]
	var lo, hi int
	for i, r := range rs {
		e.qs[i], lo, hi = m.scan(e.vecs[i*m.Components:(i+1)*m.Components], &r.q, r.q.Exclude)
	}
	e.scan.reset(m.factors[mode], lo, hi, e.qs)
	e.fanOut()
	for i, r := range rs {
		res := e.scan.result(i)
		s.cache.put(r.cacheKey(m.Version), res)
		r.out <- result{scored: res, model: m}
	}
}

// approxBudget resolves Config.ApproxCandidates: 0 is the default budget,
// negative disables the cap (Cauchy–Schwarz pruning only).
func (s *Server) approxBudget() int {
	switch {
	case s.cfg.ApproxCandidates < 0:
		return int(^uint(0) >> 1)
	case s.cfg.ApproxCandidates == 0:
		return DefaultApproxCandidates
	default:
		return s.cfg.ApproxCandidates
	}
}

// Workers reports the scan fan-out the server uses (for diagnostics).
func (s *Server) Workers() int { return par.Workers(s.cfg.Workers) }
