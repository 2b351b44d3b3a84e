package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/serve"
	"cstf/internal/tensor"
)

// Serving benchmark: the paper's pipeline ends at trained factors, but the
// point of factorizing a recommender tensor is answering queries with it.
// ServeBenchWith closes that loop end to end: train CP-ALS on a synthetic
// low-rank tensor, checkpoint it, serve the checkpoint through
// internal/serve, and drive a closed-loop client sweep — overwriting the
// checkpoint mid-sweep to prove hot reload drops nothing.

// ServeBenchConfig sizes the serving benchmark; tests shrink it.
type ServeBenchConfig struct {
	Dims             []int // tensor shape of the trained model
	NNZ              int   // nonzeros of the synthetic training tensor
	TrainIters       int   // ALS iterations before the first checkpoint
	Clients          []int // closed-loop client sweep
	RequestsPerPhase int   // requests per client count
	HotRows          float64
}

// DefaultServeBenchConfig returns the `cstf-bench -exp serve` sizing.
func DefaultServeBenchConfig() ServeBenchConfig {
	return ServeBenchConfig{
		Dims:             []int{30000, 20000, 10000},
		NNZ:              200000,
		TrainIters:       5,
		Clients:          []int{1, 4, 16},
		RequestsPerPhase: 2000,
		HotRows:          0.3,
	}
}

// ServeBenchRow is one client count's measured throughput and latency.
type ServeBenchRow struct {
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Shed      int     `json:"shed"`
	QPS       float64 `json:"qps"`
	P50Micros float64 `json:"p50_micros"`
	P95Micros float64 `json:"p95_micros"`
	P99Micros float64 `json:"p99_micros"`
}

// ServeReport is the machine-readable result of ServeBench
// (results/BENCH_serve.json).
type ServeReport struct {
	Dims       []int           `json:"dims"`
	Rank       int             `json:"rank"`
	TrainIters int             `json:"train_iters"`
	Fit        float64         `json:"fit"`
	Rows       []ServeBenchRow `json:"rows"`
	Reloads    uint64          `json:"reloads"` // hot reloads during the sweep (must be >= 1)
	ReloadErrs uint64          `json:"reload_errors"`
	CacheHits  uint64          `json:"cache_hits"`
	Batches    uint64          `json:"batches"`
	MaxBatch   uint64          `json:"max_batch"`

	// Fleet is the horizontal-scaling section (router + replica fleet);
	// see FleetBenchWith. Populated by `cstf-bench -exp serve`.
	Fleet *FleetReport `json:"fleet,omitempty"`
}

// ServeBenchWith trains, checkpoints, serves, and load-tests a CP model.
// Between the first and second client phases the checkpoint file is
// overwritten and the benchmark waits for the watcher to hot-reload it, so
// every later phase runs against the swapped model; any query error —
// including during the swap — fails the benchmark.
func ServeBenchWith(p Params, cfg ServeBenchConfig) (*ServeReport, error) {
	rank := p.Rank
	if rank < 2 {
		rank = 2
	}
	x := tensor.GenLowRank(p.Seed, cfg.NNZ, rank, 0.1, cfg.Dims...)
	res, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: cfg.TrainIters, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: serve bench training failed: %w", err)
	}

	dir, err := os.MkdirTemp("", "cstf-serve-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	if err := writeServeCheckpoint(path, p.Seed, res, cfg.Dims, res.Iters); err != nil {
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

	rep := &ServeReport{
		Dims:       cfg.Dims,
		Rank:       rank,
		TrainIters: res.Iters,
		Fit:        res.Fit(),
	}
	for phase, clients := range cfg.Clients {
		st := serve.RunLoad(ctx, s, serve.LoadOptions{
			Clients:  clients,
			Requests: cfg.RequestsPerPhase,
			Seed:     p.Seed + uint64(phase),
			HotRows:  cfg.HotRows,
		})
		rep.Rows = append(rep.Rows, ServeBenchRow{
			Clients:   st.Clients,
			Requests:  st.Requests,
			Errors:    st.Errors,
			Shed:      st.Shed,
			QPS:       st.QPS,
			P50Micros: float64(st.P50.Nanoseconds()) / 1e3,
			P95Micros: float64(st.P95.Nanoseconds()) / 1e3,
			P99Micros: float64(st.P99.Nanoseconds()) / 1e3,
		})
		if st.Errors > 0 {
			return nil, fmt.Errorf("experiments: %d queries failed at %d clients", st.Errors, clients)
		}
		if phase == 0 {
			// Overwrite the model under the running server and require the
			// watcher to pick it up before the next phase queries it.
			if err := writeServeCheckpoint(path, p.Seed, res, cfg.Dims, res.Iters+1); err != nil {
				return nil, err
			}
			deadline := time.Now().Add(5 * time.Second)
			for s.Stats().Reloads == 0 {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("experiments: watcher never reloaded the overwritten checkpoint")
				}
				time.Sleep(2 * time.Millisecond) // poll: the watcher reloads on its own ticker
			}
		}
	}
	st := s.Stats()
	rep.Reloads = st.Reloads
	rep.ReloadErrs = st.ReloadErrors
	rep.CacheHits = st.CacheHits
	rep.Batches = st.Batches
	rep.MaxBatch = st.MaxBatch
	if rep.Reloads == 0 {
		return nil, fmt.Errorf("experiments: serve bench finished without a hot reload")
	}
	if rep.ReloadErrs != 0 {
		return nil, fmt.Errorf("experiments: %d reload errors during serve bench", rep.ReloadErrs)
	}
	return rep, nil
}

// writeServeCheckpoint stores a solved model in the shared checkpoint
// schema, as `cstf -checkpoint` would.
func writeServeCheckpoint(path string, seed uint64, res *cpals.Result, dims []int, iter int) error {
	cp := &ckpt.File{
		Algorithm: "serial",
		Rank:      len(res.Lambda),
		Seed:      seed,
		Iter:      iter,
		Dims:      append([]int(nil), dims...),
		Lambda:    res.Lambda,
		Fits:      append(append([]float64(nil), res.Fits...), make([]float64, iter-res.Iters)...),
	}
	for _, f := range res.Factors {
		cp.Factors = append(cp.Factors, f.Data)
	}
	return ckpt.Write(path, cp)
}

// RenderServeBench formats the serving sweep as a text table.
func RenderServeBench(r *ServeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving benchmark: %v rank %d (fit %.3f after %d iters), hot reloads %d\n",
		r.Dims, r.Rank, r.Fit, r.TrainIters, r.Reloads)
	fmt.Fprintf(&b, "%8s %9s %7s %6s %10s %10s %10s %10s\n",
		"clients", "requests", "errors", "shed", "qps", "p50(us)", "p95(us)", "p99(us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %9d %7d %6d %10.0f %10.1f %10.1f %10.1f\n",
			row.Clients, row.Requests, row.Errors, row.Shed, row.QPS,
			row.P50Micros, row.P95Micros, row.P99Micros)
	}
	return b.String()
}
