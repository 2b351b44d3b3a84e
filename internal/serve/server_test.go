package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/rng"
)

func testServer(t *testing.T, cfg Config) (*Server, *Model) {
	t.Helper()
	m := randModel(t, 42, 3, 400, 300, 200)
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, m
}

// Concurrent batched queries must return exactly what the model answers
// directly.
func TestServerAnswersMatchModel(t *testing.T) {
	s, m := testServer(t, Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := rng.New(uint64(c))
			for i := 0; i < 25; i++ {
				mode := g.Intn(3)
				given := DefaultGiven(mode)
				row := g.Intn(m.Dims[given])
				k := 1 + g.Intn(10)
				got, err := s.TopK(ctx, mode, given, row, k)
				if err != nil {
					errCh <- err
					return
				}
				want, err := m.TopKGiven(mode, given, row, k)
				if err != nil {
					errCh <- err
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errCh <- errors.New("batched TopK differs from direct model answer")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TopKs == 0 || st.Batches == 0 {
		t.Fatalf("no batched execution recorded: %+v", st)
	}
}

func TestServerPredictAndSimilar(t *testing.T) {
	s, m := testServer(t, Config{})
	ctx := context.Background()
	got, err := s.Predict(ctx, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Predict(1, 2, 3)
	if got != want {
		t.Fatalf("Predict %v want %v", got, want)
	}
	sim, err := s.Rank(ctx, Query{Kind: Similar, Mode: 0, Row: 5, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantSim, _ := m.Rank(Query{Kind: Similar, Mode: 0, Row: 5, K: 4})
	for i := range wantSim {
		if sim[i] != wantSim[i] {
			t.Fatalf("Similar differs at %d", i)
		}
	}
}

// The result cache must hit on repeats and be invalidated by a model swap.
func TestCacheHitsAndVersioning(t *testing.T) {
	s, _ := testServer(t, Config{CacheSize: 64})
	ctx := context.Background()
	if _, err := s.TopK(ctx, 1, 0, 7, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(ctx, 1, 0, 7, 5); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("want 1 cache hit, got %+v", st)
	}
	// Swap in a fresh model: same query must MISS (new version in the key).
	s.Swap(randModel(t, 43, 3, 400, 300, 200))
	if _, err := s.TopK(ctx, 1, 0, 7, 5); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("stale cache served across reload: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(row int) cacheKey { return cacheKey{version: 1, kind: TopK, anchor: Cond{Row: row}, k: 1} }
	c.put(k(1), []Scored{{1, 1}})
	c.put(k(2), []Scored{{2, 2}})
	if _, ok := c.get(k(1)); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), nil) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d want 2", c.len())
	}
	// nil cache is inert
	var nilCache *lruCache
	nilCache.put(k(1), nil)
	if _, ok := nilCache.get(k(1)); ok || nilCache.len() != 0 {
		t.Fatal("nil cache misbehaved")
	}
}

// A full queue must shed immediately with ErrOverloaded, not block. The
// server is built via newServer — executor deliberately NOT running — so the
// queue can be filled deterministically regardless of scheduler and core
// count (with a live executor on a single-P runtime, submissions serialize
// and the queue never overflows).
func TestLoadShedding(t *testing.T) {
	m := randModel(t, 1, 3, 50, 40, 30)
	s, err := newServer(m, Config{QueueDepth: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // fill the bounded queue; nothing consumes it
		s.reqs <- &request{q: topKQuery(0, 1, i, 5), ctx: context.Background(), out: make(chan result, 1)}
	}
	_, err = s.TopK(context.Background(), 0, 1, 3, 5)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded from a full queue, got %v", err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Shedding must be non-destructive: once the queue has room again, the
	// same request goes through (start the executor now to prove it).
	<-s.reqs
	<-s.reqs
	s.done.Add(1)
	go s.dispatch()
	defer s.Close()
	if _, err := s.TopK(context.Background(), 0, 1, 3, 5); err != nil {
		t.Fatalf("request after shedding failed: %v", err)
	}
}

// A server-level timeout must surface context.DeadlineExceeded.
func TestRequestTimeout(t *testing.T) {
	m := randModel(t, 2, 4, 120000, 40)
	s, err := New(m, Config{Timeout: time.Nanosecond, MaxBatch: 1, CacheSize: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.TopK(context.Background(), 0, 1, 3, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("timeout counter not incremented")
	}
}

func TestClosedServerRejects(t *testing.T) {
	s, _ := testServer(t, Config{})
	s.Close()
	if _, err := s.TopK(context.Background(), 0, 1, 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := s.Predict(context.Background(), 0, 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func writeTestCheckpoint(t *testing.T, path string, seed uint64, iter int) {
	t.Helper()
	g := rng.New(seed)
	rank := 3
	dims := []int{50, 40, 30}
	cp := &ckpt.File{Algorithm: "serial", Rank: rank, Seed: seed, Iter: iter, Dims: dims,
		Lambda: []float64{3, 2, 1}, Fits: make([]float64, iter)}
	for _, d := range dims {
		data := make([]float64, d*rank)
		for i := range data {
			data[i] = g.Float64()
		}
		cp.Factors = append(cp.Factors, data)
	}
	if err := ckpt.Write(path, cp); err != nil {
		t.Fatal(err)
	}
}

// Hot reload under fire: queries run concurrently with checkpoint
// overwrites and watcher-driven swaps; nothing may fail, and the version
// must advance. Run with -race in CI.
func TestHotReloadUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	writeTestCheckpoint(t, path, 1, 1)
	m, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Watch(ctx, path, time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := rng.New(uint64(c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g.Intn(3) {
				case 0:
					_, err = s.Predict(ctx, g.Intn(50), g.Intn(40), g.Intn(30))
				case 1:
					_, err = s.TopK(ctx, 1, 0, g.Intn(50), 5)
				default:
					_, err = s.Rank(ctx, Query{Kind: Similar, Mode: 2, Row: g.Intn(30), K: 5})
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("query failed during reload: %v", err)
					return
				}
			}
		}(c)
	}
	// Overwrite the checkpoint several times while queries are in flight.
	for i := 2; i <= 6; i++ {
		writeTestCheckpoint(t, path, uint64(i), i)
		time.Sleep(5 * time.Millisecond) // several 1 ms watcher polls, so each version can be swapped in under load
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Reloads == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond) // poll: the watcher reloads on its own ticker
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Reloads == 0 {
		t.Fatal("watcher never reloaded the overwritten checkpoint")
	}
	if st.ReloadErrors != 0 {
		t.Fatalf("reload errors: %+v", st)
	}
	if got := s.Model().Version; got < 2 {
		t.Fatalf("model version %d never advanced", got)
	}
}

// Reload of a corrupt file must keep the old model serving.
func TestReloadKeepsOldModelOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	writeTestCheckpoint(t, path, 1, 1)
	m, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Model().Version
	if err := s.Reload(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("reload of missing file succeeded")
	}
	if s.Model().Version != before {
		t.Fatal("failed reload swapped the model")
	}
	if s.Stats().ReloadErrors != 1 {
		t.Fatalf("reload error not counted: %+v", s.Stats())
	}
	if _, err := s.TopK(context.Background(), 0, 1, 3, 5); err != nil {
		t.Fatalf("old model stopped serving after failed reload: %v", err)
	}
}

func TestRunLoad(t *testing.T) {
	s, _ := testServer(t, Config{})
	st := RunLoad(context.Background(), s, LoadOptions{Clients: 4, Requests: 400, Seed: 7})
	if st.Errors != 0 {
		t.Fatalf("load run had %d errors", st.Errors)
	}
	if st.Requests == 0 || st.QPS <= 0 {
		t.Fatalf("no throughput measured: %+v", st)
	}
	if st.P99 < st.P50 {
		t.Fatalf("percentiles inverted: %+v", st)
	}
}

// Invalid queries fail, whatever the cache holds: the valid Similar
// query that a Similar with a given would share a cache entry with is
// cached first. A Server takes its budget from Config, never a query.
func TestServerValidatesRequests(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Rank(ctx, Query{Kind: Similar, Mode: 0, Row: 3, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().CacheHits != 1 {
		t.Fatal("valid Similar query not cached")
	}
	cases := []error{}
	_, err := s.Rank(ctx, Query{Kind: Similar, Mode: 0, Row: 3, K: 5, Given: []Cond{{1, 7}}})
	cases = append(cases, err)
	_, err = s.Rank(ctx, Query{Mode: 0, Given: []Cond{{1, 3}}, K: 5, Budget: DefaultApproxCandidates})
	cases = append(cases, err)
	_, err = s.TopK(ctx, 9, 0, 0, 5) // bad mode
	cases = append(cases, err)
	_, err = s.TopK(ctx, 0, 0, 0, 5) // given == mode
	cases = append(cases, err)
	_, err = s.TopK(ctx, 0, 1, 999999, 5) // bad row
	cases = append(cases, err)
	_, err = s.TopK(ctx, 0, 1, 0, 0) // bad k
	cases = append(cases, err)
	_, err = s.Rank(ctx, Query{Kind: Similar, Mode: 0, Row: -1, K: 5}) // bad row
	cases = append(cases, err)
	for i, err := range cases {
		if err == nil {
			t.Fatalf("invalid request %d accepted", i)
		}
	}
	if st := s.Stats(); st.BadRequest != uint64(len(cases)) || st.CacheHits != 1 {
		t.Fatalf("bad requests %d, cache hits %d, want %d and 1", st.BadRequest, st.CacheHits, len(cases))
	}
}

// la.GatherRows round-trips batched reconstruction inputs; exercised here
// against the model's factors to keep the helper honest end to end.
func TestGatherRowsOnFactors(t *testing.T) {
	m := randModel(t, 4, 2, 30, 20)
	rows := []int{0, 29, 7}
	g := la.GatherRows(m.Factor(0), rows)
	for o, i := range rows {
		if la.VecMaxAbsDiff(g.Row(o), m.Factor(0).Row(i)) != 0 {
			t.Fatalf("gathered factor row %d differs", i)
		}
	}
}

// TestReloadFallsBackToRetainedVersion corrupts the live checkpoint while
// intact retained versions (as stream.Publisher writes them) sit next to
// it: Reload must detect the corruption via the checksum, serve the newest
// intact version instead, and count the fallback for /healthz.
func TestReloadFallsBackToRetainedVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	writeTestCheckpoint(t, path, 1, 1)
	m, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var logged bool
	s, err := New(m, Config{Logf: func(string, ...any) { logged = true }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Retained versions 2 and 3; version 3 is also corrupt, so the
	// fallback must land on 2.
	writeTestCheckpoint(t, ckpt.VersionPath(path, 2), 2, 2)
	writeTestCheckpoint(t, ckpt.VersionPath(path, 3), 3, 3)
	corrupt := func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeTestCheckpoint(t, path, 4, 4) // the damaged "latest"
	corrupt(path)
	corrupt(ckpt.VersionPath(path, 3))

	if err := s.Reload(path); err != nil {
		t.Fatalf("reload with intact retained version failed: %v", err)
	}
	if got := s.Model().Iter; got != 2 {
		t.Fatalf("serving iter %d, want retained version 2", got)
	}
	st := s.Stats()
	if st.ReloadFallbacks != 1 {
		t.Fatalf("fallback not counted: %+v", st)
	}
	if st.ReloadErrors != 0 {
		t.Fatalf("successful fallback counted as error: %+v", st)
	}
	if !logged {
		t.Fatal("fallback was not logged")
	}

	// With every retained version also corrupt, the reload fails and the
	// previous model keeps serving.
	corrupt(ckpt.VersionPath(path, 2))
	before := s.Model().Version
	if err := s.Reload(path); err == nil {
		t.Fatal("reload succeeded with everything corrupt")
	}
	if s.Model().Version != before {
		t.Fatal("failed reload swapped the model")
	}
	if s.Stats().ReloadErrors != 1 {
		t.Fatalf("exhausted fallback not counted as error: %+v", s.Stats())
	}
}

// Close must leave no goroutine behind: not the dispatcher, not the
// executor's scan workers, not a watcher whose context is never cancelled.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(randModel(t, 42, 3, 400, 300, 200), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Watch(context.Background(), filepath.Join(t.TempDir(), "model.ckpt"), time.Millisecond)
	var wg sync.WaitGroup
	for row := 0; row < 16; row++ {
		wg.Add(1)
		go func(row int) {
			defer wg.Done()
			if _, err := s.TopK(context.Background(), 0, 1, row, 5); err != nil {
				t.Error(err)
			}
		}(row)
	}
	wg.Wait()
	s.Close()
	// Goroutines unwind after Close returns (a scan worker sees its closed
	// channel and exits): poll.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // a poll interval, not a wait for an event
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after Close:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}
