package fleet

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/dist"
	"cstf/internal/rng"
	"cstf/internal/serve"
)

// writeCheckpoint writes a deterministic rank-r checkpoint and returns its
// path. iter becomes the model identity a reload advances.
func writeCheckpoint(t *testing.T, dir string, seed uint64, rank, iter int, dims ...int) string {
	t.Helper()
	g := rng.New(seed)
	f := &ckpt.File{Algorithm: "als", Rank: rank, Iter: iter, Dims: dims}
	for r := 0; r < rank; r++ {
		f.Lambda = append(f.Lambda, 0.5+g.Float64())
	}
	for _, d := range dims {
		data := make([]float64, d*rank)
		for i := range data {
			data[i] = g.Float64()*2 - 1
		}
		f.Factors = append(f.Factors, data)
	}
	path := filepath.Join(dir, "model.ckpt")
	if err := ckpt.Write(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// topK is a TopK query with one fixed coordinate: row of mode given.
func topK(mode, given, row, k int) serve.Query {
	return serve.Query{Mode: mode, Given: []serve.Cond{{Mode: given, Row: row}}, K: k}
}

// startFleet boots n replicas off path plus a router over them. The fast
// probe interval keeps eviction/re-admission tests quick.
func startFleet(t *testing.T, path string, n int, shard bool) (*LocalFleet, *Router) {
	t.Helper()
	lf, err := StartLocal(n, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(path)
	}, serve.Config{}, serve.HandlerConfig{ReloadPath: path})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Replicas:      lf.Configs(),
		Shard:         shard,
		ProbeInterval: 10 * time.Millisecond,
		Timeout:       5 * time.Second,
		Retry:         dist.RetryPolicy{MaxAttempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Logf:          t.Logf,
	})
	if err != nil {
		lf.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close(); lf.Close() })
	return lf, rt
}

// Routing through the fleet — affinity or sharded — must return bitwise
// the answers a single node computes, including Similar's normalization
// and the tie-break order a sharded merge depends on.
func TestRouterMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 3, 4, 1, 600, 300, 80)
	single, err := serve.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shard := range []bool{false, true} {
		_, rt := startFleet(t, path, 3, shard)
		if got, want := rt.Dims(), single.Dims; len(got) != len(want) {
			t.Fatalf("shard=%v: dims %v want %v", shard, got, want)
		}
		g := rng.New(11)
		for trial := 0; trial < 50; trial++ {
			mode := g.Intn(3)
			given := serve.DefaultGiven(mode)
			row := g.Intn(single.Dims[given])
			k := 1 + g.Intn(20)
			want, err := single.TopKGiven(mode, given, row, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Rank(ctx, topK(mode, given, row, k))
			if err != nil {
				t.Fatalf("shard=%v TopK: %v", shard, err)
			}
			if len(got) != len(want) {
				t.Fatalf("shard=%v: %d results want %d", shard, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shard=%v trial %d: result %d = %+v want %+v", shard, trial, i, got[i], want[i])
				}
			}

			srow := g.Intn(single.Dims[mode])
			similar := serve.Query{Kind: serve.Similar, Mode: mode, Row: srow, K: k}
			wantS, err := single.Rank(similar)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := rt.Rank(ctx, similar)
			if err != nil {
				t.Fatalf("shard=%v Similar: %v", shard, err)
			}
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Fatalf("shard=%v: similar result %d = %+v want %+v", shard, i, gotS[i], wantS[i])
				}
			}

			idx := []int{g.Intn(600), g.Intn(300), g.Intn(80)}
			wantV, err := single.Predict(idx...)
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := rt.Predict(ctx, idx...)
			if err != nil {
				t.Fatal(err)
			}
			if gotV != wantV {
				t.Fatalf("shard=%v: predict %v = %v want %v", shard, idx, gotV, wantV)
			}
		}
	}
}

// Repeats of the same query must land on the same replica (cache
// affinity), and the fleet's routing must spread distinct keys over every
// replica.
func TestRouterAffinityIsSticky(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 5, 3, 1, 400, 200)
	_, rt := startFleet(t, path, 3, false)
	ctx := context.Background()

	before := rt.Stats()
	for i := 0; i < 20; i++ {
		if _, err := rt.Rank(ctx, topK(0, 1, 7, 5)); err != nil {
			t.Fatal(err)
		}
	}
	after := rt.Stats()
	grew := 0
	for i := range after.Replicas {
		if after.Replicas[i].Routed > before.Replicas[i].Routed {
			grew++
		}
	}
	if grew != 1 {
		t.Fatalf("repeated query touched %d replicas, want exactly 1", grew)
	}

	g := rng.New(99)
	for i := 0; i < 300; i++ {
		if _, err := rt.Rank(ctx, topK(0, 1, g.Intn(200), 5)); err != nil {
			t.Fatal(err)
		}
	}
	spread := rt.Stats()
	for _, r := range spread.Replicas {
		if r.Routed == 0 {
			t.Fatalf("replica %s received no traffic across 300 distinct keys", r.Name)
		}
	}
}

// Killing a replica must not fail queries: the hit queries fail over at
// once, the prober evicts it, and restarting it re-admits it.
func TestRouterFailoverAndReadmission(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 7, 3, 1, 500, 250)
	lf, rt := startFleet(t, path, 3, false)
	ctx := context.Background()

	dead := lf.Replicas[1]
	dead.Stop()

	g := rng.New(5)
	for i := 0; i < 200; i++ {
		if _, err := rt.Rank(ctx, topK(0, 1, g.Intn(250), 5)); err != nil {
			t.Fatalf("query %d failed during replica outage: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.Stats()
		if st.Live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never evicted; stats %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range rt.Stats().Replicas {
		if r.Name == dead.Name && r.Evictions == 0 {
			t.Fatalf("dead replica shows no eviction: %+v", r)
		}
	}

	if err := dead.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := rt.Stats()
		if st.Live == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never re-admitted; stats %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Sharded queries must also survive a dead replica: its range is re-served
// by a survivor, and the merged result stays bitwise-exact.
func TestShardedFailover(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 13, 3, 1, 900, 100)
	single, err := serve.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	lf, rt := startFleet(t, path, 3, true)
	ctx := context.Background()

	lf.Replicas[2].Stop()
	g := rng.New(77)
	for i := 0; i < 60; i++ {
		row, k := g.Intn(100), 1+g.Intn(15)
		want, err := single.TopKGiven(0, 1, row, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Rank(ctx, topK(0, 1, row, k))
		if err != nil {
			t.Fatalf("sharded query %d failed during outage: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d: result %d = %+v want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// The headline guarantee: a rolling reload across the fleet under live
// load drops zero queries, and every replica ends up on the new model
// version.
func TestRollingReloadZeroDropsUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 21, 3, 1, 800, 400)
	lf, rt := startFleet(t, path, 3, false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var stats serve.LoadStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats = serve.RunLoad(ctx, rt, serve.LoadOptions{
			Clients:  4,
			Requests: 100000, // far more than the reload window needs; cancelled below
			Seed:     1,
		})
	}()

	time.Sleep(20 * time.Millisecond) // let load ramp
	// Publish v2 of the model, then roll it across the fleet.
	writeCheckpoint(t, dir, 22, 3, 2, 800, 400)
	if err := rt.RollingReload(context.Background()); err != nil {
		t.Fatalf("rolling reload: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // post-roll traffic against the new model
	cancel()
	wg.Wait()

	if stats.Errors > 0 || stats.Shed > 0 {
		t.Fatalf("rolling reload dropped queries: %d errors, %d shed (of %d)", stats.Errors, stats.Shed, stats.Requests)
	}
	if stats.Requests == 0 {
		t.Fatal("load generator completed no requests")
	}
	st := rt.Stats()
	if !st.Reload.Active && st.Reload.Done != 3 {
		t.Fatalf("reload progress %+v, want done=3", st.Reload)
	}
	for _, r := range lf.Replicas {
		if got := r.Server.Model().Iter; got != 2 {
			t.Fatalf("replica %s serving iter %d after roll, want 2", r.Name, got)
		}
	}
	for _, rs := range st.Replicas {
		if rs.Version != 2 {
			t.Fatalf("router view of %s at version %d, want 2", rs.Name, rs.Version)
		}
	}
}

// A second roll while one is active must be refused, not interleaved.
func TestRollingReloadExclusive(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 31, 2, 1, 200, 100)
	_, rt := startFleet(t, path, 2, false)
	if err := rt.RollingReload(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After completion a new roll is allowed again.
	if err := rt.RollingReload(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// An exclude set must be honored identically through the fleet on both
// routing modes: affinity routes the whole excluded query to one replica,
// shard mode sends the same exclude set to every range scan — either way
// the answer is bitwise what a single node returns for the same set.
func TestRouterTopKExcludeMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, 7, 3, 1, 500, 200, 60)
	single, err := serve.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shard := range []bool{false, true} {
		_, rt := startFleet(t, path, 3, shard)
		g := rng.New(29)
		for trial := 0; trial < 30; trial++ {
			mode := g.Intn(3)
			given := serve.DefaultGiven(mode)
			row := g.Intn(single.Dims[given])
			k := 1 + g.Intn(15)
			var ex []int
			for len(ex) < 8 {
				ex = append(ex, g.Intn(single.Dims[mode]))
			}
			q := topK(mode, given, row, k)
			q.Exclude = ex
			want, err := single.Rank(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Rank(ctx, q)
			if err != nil {
				t.Fatalf("shard=%v TopK with exclude: %v", shard, err)
			}
			if len(got) != len(want) {
				t.Fatalf("shard=%v: %d results want %d", shard, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shard=%v trial %d: result %d = %+v want %+v", shard, trial, i, got[i], want[i])
				}
			}
		}
	}
}
