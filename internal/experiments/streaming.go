package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/serve"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

// Streaming benchmark: the batch pipeline's answer to "how stale is the
// served model?" is "as stale as the last retrain". StreamBenchWith measures
// the alternative end to end — train an initial model, serve it with the
// hot-reload watcher, then stream windows of new nonzeros through
// internal/stream and record, per window, the incremental update time and
// the freshness lag from event arrival to queryable version; at the end it
// compares the streamed model's fit against a one-shot batch retrain of the
// final tensor (fit drift) and the mean window update time against the cost
// of that full retrain.

// StreamBenchConfig sizes the streaming benchmark; tests shrink it.
type StreamBenchConfig struct {
	Dims           []int   // initial tensor shape
	InitNNZ        int     // nonzeros trained on before streaming starts
	TrainIters     int     // batch ALS iterations for the initial model
	Windows        int     // streamed delta windows
	WindowSize     int     // events per window
	FullSweepEvery int     // warm full sweep cadence (windows)
	GrowEvery      int     // source grows a mode every N events (0 = static dims)
	Noise          float64 // value noise of the planted stream
}

// DefaultStreamBenchConfig returns the `cstf-bench -exp stream` sizing.
func DefaultStreamBenchConfig() StreamBenchConfig {
	// Windows are small relative to the mode sizes — the regime incremental
	// updates are for: each window touches a few percent of the rows, so the
	// restricted sweep does a few percent of a full sweep's MTTKRP work.
	return StreamBenchConfig{
		Dims:           []int{5000, 4000, 3000},
		InitNNZ:        400000,
		TrainIters:     4,
		Windows:        10,
		WindowSize:     500,
		FullSweepEvery: 4,
		GrowEvery:      1000,
		Noise:          0.05,
	}
}

// StreamWindowRow is one streamed window's measurements.
type StreamWindowRow struct {
	Window      int     `json:"window"`
	Events      int     `json:"events"`
	TouchedRows int     `json:"touched_rows"`
	NNZ         int     `json:"nnz"`
	UpdateMs    float64 `json:"update_ms"`
	LagMs       float64 `json:"lag_ms"` // event arrival -> queryable version
	FullSweep   bool    `json:"full_sweep"`
	Version     int     `json:"version"`
}

// StreamReport is the machine-readable result of StreamBench
// (results/BENCH_stream.json).
type StreamReport struct {
	Dims           []int             `json:"dims"`       // initial dims
	FinalDims      []int             `json:"final_dims"` // after growth
	Rank           int               `json:"rank"`
	InitNNZ        int               `json:"init_nnz"`
	FinalNNZ       int               `json:"final_nnz"`
	InitFit        float64           `json:"init_fit"`
	Rows           []StreamWindowRow `json:"rows"`
	StreamFit      float64           `json:"stream_fit"`      // fit of the streamed model on the final tensor
	BatchFit       float64           `json:"batch_fit"`       // one-shot batch retrain, same seed/iters budget
	FitDrift       float64           `json:"fit_drift"`       // batch - stream (positive = stream behind)
	MeanWindowMs   float64           `json:"mean_window_ms"`  // mean incremental update time
	MaxLagMs       float64           `json:"max_lag_ms"`      // worst event->queryable freshness lag
	FullRetrainMs  float64           `json:"full_retrain_ms"` // one warm full ALS sweep over the final tensor
	Speedup        float64           `json:"window_vs_retrain_speedup"`
	Published      int               `json:"published"`
	ServerReloads  uint64            `json:"server_reloads"`
	ServedVersion  uint64            `json:"served_version"` // serve.Model.Version after the last reload
	ServedModelAge float64           `json:"served_model_age_secs"`
}

// StreamBenchWith trains, serves, streams, and measures. Any pipeline or
// serving error fails the benchmark; so does a server that never reloads.
func StreamBenchWith(p Params, cfg StreamBenchConfig) (*StreamReport, error) {
	rank := p.Rank
	if rank < 2 {
		rank = 2
	}
	total := cfg.InitNNZ + cfg.Windows*cfg.WindowSize
	src, err := stream.NewSynthetic(stream.SyntheticConfig{
		Seed: p.Seed, Dims: cfg.Dims, Rank: rank,
		Noise: cfg.Noise, Total: total, GrowEvery: cfg.GrowEvery,
	})
	if err != nil {
		return nil, err
	}

	// Initial batch: the first InitNNZ events of the same stream.
	first, err := src.Next(cfg.InitNNZ)
	if err != nil {
		return nil, err
	}
	x := tensor.New(src.Dims()...)
	x.Entries = append([]tensor.Entry(nil), first...)
	x.DedupSum()
	res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: cfg.TrainIters, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: stream bench initial training failed: %w", err)
	}

	dir, err := os.MkdirTemp("", "cstf-stream-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")

	u, err := stream.NewUpdaterFromResult(x, res, p.Seed, 0)
	if err != nil {
		return nil, err
	}
	pub := stream.NewPublisher(path, p.Seed)
	if _, err := pub.Publish(u, res.Fit()); err != nil {
		return nil, err
	}

	m, err := serve.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(m, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Watch(ctx, path, 2*time.Millisecond)

	rep := &StreamReport{
		Dims:    append([]int(nil), cfg.Dims...),
		Rank:    rank,
		InitNNZ: x.NNZ(),
		InitFit: res.Fit(),
	}
	pl, err := stream.NewPipeline(src, u, pub, stream.Config{
		WindowSize:     cfg.WindowSize,
		MaxWait:        5 * time.Millisecond,
		PublishEvery:   1,
		FullSweepEvery: cfg.FullSweepEvery,
		MaxWindows:     cfg.Windows,
		Queue:          stream.QueueConfig{Depth: 4 * cfg.WindowSize, Policy: stream.Block},
		OnWindow: func(ws stream.WindowStats) {
			rep.Rows = append(rep.Rows, StreamWindowRow{
				Window:      ws.Window,
				Events:      ws.Update.Events,
				TouchedRows: ws.Update.TouchedRows,
				NNZ:         ws.Update.NNZ,
				UpdateMs:    ws.Update.DurationMs,
				LagMs:       ws.LagMs,
				FullSweep:   ws.FullSweep,
				Version:     ws.Version,
			})
			if ws.LagMs > rep.MaxLagMs {
				rep.MaxLagMs = ws.LagMs
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := pl.Run(ctx); err != nil {
		return nil, fmt.Errorf("experiments: stream pipeline failed: %w", err)
	}
	met := pl.Metrics()
	if met.Windows != cfg.Windows {
		return nil, fmt.Errorf("experiments: ran %d windows, want %d", met.Windows, cfg.Windows)
	}
	rep.Published = met.Published
	rep.FinalDims = u.Dims()
	rep.FinalNNZ = u.Tensor().NNZ()
	var sumMs float64
	for _, r := range rep.Rows {
		sumMs += r.UpdateMs
	}
	rep.MeanWindowMs = sumMs / float64(len(rep.Rows))

	// Wait for the watcher to reach the final published version.
	deadline := time.Now().Add(10 * time.Second)
	for s.Model().Iter != pub.Version() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: server never reloaded to v%d (at %d)", pub.Version(), s.Model().Iter)
		}
		time.Sleep(2 * time.Millisecond) // poll: the watcher reloads on its own ticker
	}
	st := s.Stats()
	rep.ServerReloads = st.Reloads
	rep.ServedVersion = st.ModelVersion
	rep.ServedModelAge = st.ModelAgeSecs
	if rep.ServerReloads == 0 {
		return nil, fmt.Errorf("experiments: stream bench finished without a hot reload")
	}

	// Fit drift: streamed model vs a one-shot batch retrain on the SAME
	// final tensor with the same seed and the same total full-iteration
	// budget (initial iters + full sweeps the stream got).
	rep.StreamFit = u.Fit()
	batchIters := cfg.TrainIters
	if cfg.FullSweepEvery > 0 {
		batchIters += cfg.Windows / cfg.FullSweepEvery
	}
	final := u.Tensor().Clone()
	t0 := time.Now()
	batch, err := cpals.Solve(final, cpals.Options{Rank: rank, MaxIters: batchIters, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: batch retrain failed: %w", err)
	}
	batchTotal := time.Since(t0)
	rep.BatchFit = batch.Fit()
	rep.FitDrift = rep.BatchFit - rep.StreamFit
	// Per-refresh comparison: one full warm sweep over the final tensor is
	// what a non-incremental pipeline would pay per published version.
	rep.FullRetrainMs = float64(batchTotal.Nanoseconds()) / 1e6 / float64(batchIters)
	if rep.MeanWindowMs > 0 {
		rep.Speedup = rep.FullRetrainMs / rep.MeanWindowMs
	}
	return rep, nil
}

// RenderStreamBench formats the streaming run as a text table.
func RenderStreamBench(r *StreamReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Streaming benchmark: %v rank %d, %d init nnz (fit %.3f) -> %d nnz, dims %v\n",
		r.Dims, r.Rank, r.InitNNZ, r.InitFit, r.FinalNNZ, r.FinalDims)
	fmt.Fprintf(&b, "%7s %8s %9s %9s %11s %9s %6s %8s\n",
		"window", "events", "touched", "nnz", "update(ms)", "lag(ms)", "sweep", "version")
	for _, row := range r.Rows {
		sweep := ""
		if row.FullSweep {
			sweep = "full"
		}
		fmt.Fprintf(&b, "%7d %8d %9d %9d %11.2f %9.2f %6s %8d\n",
			row.Window, row.Events, row.TouchedRows, row.NNZ, row.UpdateMs, row.LagMs, sweep, row.Version)
	}
	fmt.Fprintf(&b, "stream fit %.4f vs batch %.4f (drift %+.4f); mean window %.2f ms vs full sweep %.2f ms (%.1fx); max lag %.2f ms; %d versions, %d reloads\n",
		r.StreamFit, r.BatchFit, r.FitDrift, r.MeanWindowMs, r.FullRetrainMs, r.Speedup, r.MaxLagMs, r.Published, r.ServerReloads)
	return b.String()
}
