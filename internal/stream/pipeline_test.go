package stream

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/serve"
	"cstf/internal/tensor"
)

// End-to-end: a server starts on a checkpoint, the pipeline streams three
// windows of new nonzeros, and the served model version advances with a
// /predict answer that reflects the post-stream factors.
func TestPipelineFeedsServingHotReload(t *testing.T) {
	const seed, rank = 17, 3
	dims := []int{40, 30, 20}
	path := filepath.Join(t.TempDir(), "model.ckpt")

	// Initial batch training on the planted model's first 3000 events.
	src, err := NewSynthetic(SyntheticConfig{Seed: seed, Dims: dims, Rank: rank, Total: 3000 + 3*500})
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next(3000)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(dims...)
	x.Entries = append([]tensor.Entry(nil), first...)
	x.DedupSum()
	res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdaterFromResult(x, res, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(path, seed)
	if _, err := pub.Publish(u, res.Fit()); err != nil {
		t.Fatal(err)
	}

	// Serve the initial version and watch the file.
	m, err := serve.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Watch(ctx, path, 2*time.Millisecond)
	v0 := s.Model().Version

	// Stream the remaining events through the full pipeline: exactly three
	// 500-event windows, each published, whatever the feeder's pace — the
	// window deadline is far beyond any scheduling stall. Every window
	// must do work and report its published version and freshness lag.
	var windows []WindowStats
	p, err := NewPipeline(src, u, pub, Config{
		WindowSize:     500,
		MaxWait:        5 * time.Second,
		PublishEvery:   1,
		FullSweepEvery: 2,
		MaxWindows:     3,
		Queue:          QueueConfig{Depth: 2048, Policy: Block},
		OnWindow:       func(ws WindowStats) { windows = append(windows, ws) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	met := p.Metrics()
	if met.Windows != 3 {
		t.Fatalf("ran %d windows, want 3", met.Windows)
	}
	if met.Published != 3 {
		t.Fatalf("published %d versions, want 3", met.Published)
	}
	if met.Events != 1500 {
		t.Fatalf("processed %d events, want 1500", met.Events)
	}
	if len(windows) != 3 {
		t.Fatalf("OnWindow saw %d windows, want 3", len(windows))
	}
	for i, ws := range windows {
		if ws.Update.Events == 0 || ws.Update.TouchedRows == 0 || ws.Version != i+2 || ws.LagMs < 0 {
			t.Fatalf("window %d: %d events, %d touched rows, version %d, lag %v ms; want work, version %d and a lag >= 0",
				i, ws.Update.Events, ws.Update.TouchedRows, ws.Version, ws.LagMs, i+2)
		}
	}

	// The watcher must pick up the final published version.
	deadline := time.Now().Add(5 * time.Second)
	for s.Model().Iter != pub.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("server never reloaded to v%d (at iter %d)", pub.Version(), s.Model().Iter)
		}
		time.Sleep(2 * time.Millisecond) // poll: the watcher reloads on its own ticker
	}
	if s.Model().Version <= v0 {
		t.Fatalf("served model version did not advance: %d -> %d", v0, s.Model().Version)
	}

	// A /predict over HTTP must reflect the post-stream factors exactly.
	srv := httptest.NewServer(serve.NewHandler(s))
	defer srv.Close()
	idx := []int{3, 1, 4}
	resp, err := srv.Client().Get(srv.URL + "/predict?index=3,1,4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Value        float64 `json:"value"`
		ModelVersion uint64  `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := (&cpals.Result{Lambda: u.Lambda(), Factors: u.Factors()}).ReconstructAt(idx...)
	if math.Abs(body.Value-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Fatalf("/predict = %v, live updater reconstructs %v", body.Value, want)
	}

	// /healthz reports the new version and a fresh age.
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Version    uint64  `json:"version"`
		AgeSeconds float64 `json:"age_seconds"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Version != s.Model().Version {
		t.Fatalf("/healthz version %d != served %d", health.Version, s.Model().Version)
	}
	if health.AgeSeconds < 0 || health.AgeSeconds > 60 {
		t.Fatalf("implausible age_seconds %v", health.AgeSeconds)
	}
}

// The pipeline over a tailed .tns log: entries appended while the pipeline
// runs land in the resident tensor.
func TestPipelineOverTailedLog(t *testing.T) {
	dims := []int{20, 15, 10}
	const seed, rank = 5, 2
	x := tensor.GenLowRank(seed, 1500, rank, 0, dims...)
	logPath := filepath.Join(t.TempDir(), "events.tns")
	if err := tensor.SaveTNSFile(logPath, x); err != nil {
		t.Fatal(err)
	}

	res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdaterFromResult(x, res, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewTail(logPath, true) // only NEW appends stream
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	p, err := NewPipeline(src, u, nil, Config{
		WindowSize:   64,
		MaxWait:      5 * time.Millisecond,
		PollInterval: time.Millisecond,
		MaxWindows:   2,
		Queue:        QueueConfig{Depth: 256},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Appender: two bursts of fresh entries (duplicate coords are fine;
	// COO duplicates are summed).
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		extra := tensor.GenUniform(seed+9, 200, 20, 15, 10)
		half := extra.NNZ() / 2
		part1, part2 := extra.Clone(), extra.Clone()
		part1.Entries = part1.Entries[:half]
		part2.Entries = part2.Entries[half:]
		appendTNS(t, logPath, part1)
		time.Sleep(20 * time.Millisecond) // many 1 ms tail polls, so the two bursts arrive as separate reads
		appendTNS(t, logPath, part2)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = p.Run(ctx)
	<-appended
	if err != nil {
		t.Fatal(err)
	}
	met := p.Metrics()
	if met.Windows != 2 {
		t.Fatalf("ran %d windows, want 2", met.Windows)
	}
	if u.Tensor().NNZ() <= x.NNZ() {
		t.Fatalf("resident tensor did not grow: %d nnz", u.Tensor().NNZ())
	}
}

func appendTNS(t *testing.T, path string, x *tensor.COO) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	if err := tensor.WriteTNS(f, x); err != nil {
		t.Error(err)
	}
}

// Run must leave no goroutine behind once it returns — not its feeder —
// whether it stops at MaxWindows or on a cancelled context while the
// feeder polls an idle tail.
func TestRunLeavesNoGoroutines(t *testing.T) {
	dims := []int{20, 15, 10}
	x := tensor.GenLowRank(5, 1500, 2, 0, dims...)
	logPath := filepath.Join(t.TempDir(), "events.tns")
	if err := tensor.SaveTNSFile(logPath, x); err != nil {
		t.Fatal(err)
	}
	res, err := cpals.Solve(x, cpals.Options{Rank: 2, MaxIters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() (Source, context.Context, context.CancelFunc, error){
		"max windows": func() (Source, context.Context, context.CancelFunc, error) {
			src, err := NewSynthetic(SyntheticConfig{Seed: 5, Dims: dims, Rank: 2, Total: 1000})
			ctx, cancel := context.WithCancel(context.Background())
			return src, ctx, cancel, err
		},
		"cancelled": func() (Source, context.Context, context.CancelFunc, error) {
			src, err := NewTail(logPath, true) // nothing is appended: the feeder polls
			if err == nil {
				t.Cleanup(func() { src.Close() })
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			return src, ctx, cancel, err
		},
	}
	for name, start := range runs {
		base := runtime.NumGoroutine()
		src, ctx, cancel, err := start()
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUpdaterFromResult(x, res, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(src, u, nil, Config{WindowSize: 100, MaxWait: time.Millisecond,
			PollInterval: time.Millisecond, MaxWindows: 2, Queue: QueueConfig{Depth: 256}})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The feeder exits after Run returns (it sees the closed queue or
		// the cancelled context on its next step): poll.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // a poll interval, not a wait for an event
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines before, %d after Run:\n%s", name, base, n, buf[:runtime.Stack(buf, true)])
		}
	}
}
