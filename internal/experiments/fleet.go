package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cstf/internal/fleet"
	"cstf/internal/serve"
)

// Fleet benchmark: the horizontal half of the serving story. A single
// machine hosts N in-process replicas behind a cstf-router-style Router,
// and the same closed-loop load generator that measures one server is
// pointed at the router. Two levers are measured:
//
//   - Replica count (1/2/4) under a bounded query working set: consistent-
//     hash affinity shards the key space, so the fleet's AGGREGATE cache
//     grows with N while each replica's stays fixed. One replica thrashes
//     (most queries pay a full scan); four mostly hit. The aggregate-QPS
//     scaling column is the cache-capacity effect, not CPU parallelism —
//     the host may well have a single core.
//   - Exact vs approximate TopK on the replicas, with measured recall@K
//     against the full scan (the recall column; exact rows are 1.0 by
//     construction).
//
// The benchmark ends with a rolling-reload drill at the largest fleet:
// a new model version rolls replica by replica under live load, and the
// drill fails unless zero queries were dropped.

// FleetBenchConfig sizes the fleet benchmark; tests shrink it.
type FleetBenchConfig struct {
	Dims          []int
	Rank          int
	ReplicaCounts []int // fleet sizes to sweep
	Clients       int   // closed-loop clients per phase
	Requests      int   // measured requests per phase
	Warmup        int   // unmeasured cache-warming requests per phase
	WorkingSet    int   // distinct anchor rows per mode (bounded query universe)
	CacheSize     int   // per-replica LRU entries — sized so one replica thrashes
	RecallQueries int   // sampled queries for the recall@K column
	K             int
}

// DefaultFleetBenchConfig returns the `cstf-bench -exp fleet` sizing:
// a model whose full-mode scan is milliseconds (so cache misses are
// expensive), a working set ~3x one replica's cache (so capacity is the
// bottleneck at N=1), and cache capacity that covers the working set by
// N=4.
func DefaultFleetBenchConfig() FleetBenchConfig {
	// The ranked-key universe is ~3*WorkingSet anchors (one per queried
	// mode); Warmup must be several times that so the measured phase sees
	// steady-state repeat probability, and CacheSize*4 must cover the
	// universe while CacheSize*1 covers only ~a third of it.
	return FleetBenchConfig{
		Dims:          []int{120000, 60000, 30000},
		Rank:          16,
		ReplicaCounts: []int{1, 2, 4},
		Clients:       8,
		Requests:      8000,
		Warmup:        8000,
		WorkingSet:    800,
		CacheSize:     900,
		RecallQueries: 200,
		K:             10,
	}
}

// FleetBenchRow is one (replica count, exact|approx) phase.
type FleetBenchRow struct {
	Replicas  int     `json:"replicas"`
	Approx    bool    `json:"approx"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Shed      int     `json:"shed"`
	QPS       float64 `json:"qps"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// RecallAtK is measured against the exact full scan over
	// RecallQueries sampled anchors; exact rows report 1.0.
	RecallAtK float64 `json:"recall_at_k"`
	// HitRate is the fleet-aggregate result-cache hit rate during the
	// measured phase — the mechanism behind the QPS column.
	HitRate float64 `json:"cache_hit_rate"`
}

// FleetReloadDrill is the rolling-reload-under-load result.
type FleetReloadDrill struct {
	Replicas int `json:"replicas"`
	Requests int `json:"requests"` // completed during the drill window
	Errors   int `json:"errors"`   // must be 0
	Shed     int `json:"shed"`     // must be 0
	Reloaded int `json:"reloaded"` // replicas rolled — must equal Replicas
}

// FleetReport is the machine-readable result of FleetBench
// (results/BENCH_fleet.json).
type FleetReport struct {
	Dims       []int            `json:"dims"`
	Rank       int              `json:"rank"`
	K          int              `json:"k"`
	WorkingSet int              `json:"working_set"`
	CacheSize  int              `json:"cache_size_per_replica"`
	Rows       []FleetBenchRow  `json:"rows"`
	ScalingX   float64          `json:"qps_scaling_max_over_1"` // exact-row QPS at max fleet / at 1 replica
	Reload     FleetReloadDrill `json:"rolling_reload"`
}

// FleetBenchWith boots a local fleet per (replica count, approx) phase,
// drives the closed-loop load through the router, measures recall@K
// against a single-node exact scan, and finishes with the rolling-reload
// drill. Any dropped query anywhere fails the benchmark.
func FleetBenchWith(p Params, cfg FleetBenchConfig) (*FleetReport, error) {
	dir, err := os.MkdirTemp("", "cstf-fleet-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	if err := serve.WriteDemoCheckpoint(path, cfg.Rank, 1, cfg.Dims...); err != nil {
		return nil, err
	}
	exact, err := serve.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{
		Dims:       cfg.Dims,
		Rank:       cfg.Rank,
		K:          cfg.K,
		WorkingSet: cfg.WorkingSet,
		CacheSize:  cfg.CacheSize,
	}
	for _, approx := range []bool{false, true} {
		for phase, n := range cfg.ReplicaCounts {
			row, err := fleetPhase(p, cfg, path, exact, n, approx, uint64(phase))
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, *row)
		}
	}

	// Scaling: exact rows, largest fleet over single replica.
	var qps1, qpsN float64
	for _, r := range rep.Rows {
		if r.Approx {
			continue
		}
		if r.Replicas == cfg.ReplicaCounts[0] {
			qps1 = r.QPS
		}
		qpsN = r.QPS
	}
	if qps1 > 0 {
		rep.ScalingX = qpsN / qps1
	}

	drill, err := fleetReloadDrill(p, cfg, path)
	if err != nil {
		return nil, err
	}
	rep.Reload = *drill
	return rep, nil
}

func fleetLoadOptions(cfg FleetBenchConfig, requests int, seed uint64) serve.LoadOptions {
	return serve.LoadOptions{
		Clients:    cfg.Clients,
		Requests:   requests,
		K:          cfg.K,
		Seed:       seed,
		Predict:    0.05, // ranked queries dominate: they are what caching and approx serve
		Similar:    0.05,
		WorkingSet: cfg.WorkingSet,
	}
}

// fleetPhase measures one (replica count, approx) point: boot fleet, warm
// the caches, measure, sample recall.
func fleetPhase(p Params, cfg FleetBenchConfig, path string, exact *serve.Model, n int, approx bool, phase uint64) (*FleetBenchRow, error) {
	lf, err := fleet.StartLocal(n, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(path)
	}, serve.Config{CacheSize: cfg.CacheSize, Approx: approx}, serve.HandlerConfig{})
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	rt, err := fleet.New(fleet.Config{
		Replicas:      lf.Configs(),
		ProbeInterval: 100 * time.Millisecond,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	ctx := context.Background()

	// Warmup fills the LRUs at this fleet size; the same working set means
	// the measured pass sees steady-state hit rates.
	warm := serve.RunLoad(ctx, rt, fleetLoadOptions(cfg, cfg.Warmup, p.Seed+phase))
	if warm.Errors > 0 {
		return nil, fmt.Errorf("experiments: fleet warmup failed %d queries at %d replicas", warm.Errors, n)
	}
	var hits0, misses0 uint64
	for _, r := range lf.Replicas {
		st := r.Server.Stats()
		hits0 += st.CacheHits
		misses0 += st.CacheMisses
	}

	st := serve.RunLoad(ctx, rt, fleetLoadOptions(cfg, cfg.Requests, p.Seed+phase+100))
	if st.Errors > 0 {
		return nil, fmt.Errorf("experiments: %d fleet queries failed at %d replicas (approx=%v)", st.Errors, n, approx)
	}
	var hits, misses uint64
	for _, r := range lf.Replicas {
		s := r.Server.Stats()
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	row := &FleetBenchRow{
		Replicas:  n,
		Approx:    approx,
		Clients:   st.Clients,
		Requests:  st.Requests,
		Errors:    st.Errors,
		Shed:      st.Shed,
		QPS:       st.QPS,
		P50Micros: float64(st.P50.Nanoseconds()) / 1e3,
		P99Micros: float64(st.P99.Nanoseconds()) / 1e3,
		RecallAtK: 1,
	}
	if total := (hits - hits0) + (misses - misses0); total > 0 {
		row.HitRate = float64(hits-hits0) / float64(total)
	}
	if approx {
		r, err := measureRecall(ctx, rt, exact, cfg, p.Seed+phase)
		if err != nil {
			return nil, err
		}
		row.RecallAtK = r
	}
	return row, nil
}

// measureRecall compares the fleet's (approximate) TopK answers with the
// exact single-node scan over sampled working-set anchors.
func measureRecall(ctx context.Context, rt *fleet.Router, exact *serve.Model, cfg FleetBenchConfig, seed uint64) (float64, error) {
	order := len(cfg.Dims)
	var sum float64
	queries := 0
	for q := 0; q < cfg.RecallQueries; q++ {
		mode := q % order
		given := serve.DefaultGiven(mode)
		universe := cfg.Dims[given]
		if cfg.WorkingSet > 0 && cfg.WorkingSet < universe {
			universe = cfg.WorkingSet
		}
		row := int((seed + uint64(q)*2654435761) % uint64(universe))
		want, err := exact.TopKGiven(mode, given, row, cfg.K)
		if err != nil {
			return 0, err
		}
		got, err := rt.Rank(ctx, serve.Query{Mode: mode, Given: []serve.Cond{{Mode: given, Row: row}}, K: cfg.K})
		if err != nil {
			return 0, fmt.Errorf("experiments: recall query failed: %w", err)
		}
		inExact := make(map[int]bool, len(want))
		for _, s := range want {
			inExact[s.Index] = true
		}
		hit := 0
		for _, s := range got {
			if inExact[s.Index] {
				hit++
			}
		}
		if len(want) > 0 {
			sum += float64(hit) / float64(len(want))
			queries++
		}
	}
	if queries == 0 {
		return 0, fmt.Errorf("experiments: no recall queries completed")
	}
	return sum / float64(queries), nil
}

// fleetReloadDrill rolls a new model version across the largest fleet
// under live load and requires zero dropped queries.
func fleetReloadDrill(p Params, cfg FleetBenchConfig, path string) (*FleetReloadDrill, error) {
	n := cfg.ReplicaCounts[len(cfg.ReplicaCounts)-1]
	lf, err := fleet.StartLocal(n, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(path)
	}, serve.Config{CacheSize: cfg.CacheSize}, serve.HandlerConfig{ReloadPath: path})
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	rt, err := fleet.New(fleet.Config{
		Replicas:      lf.Configs(),
		ProbeInterval: 50 * time.Millisecond,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	// Publish the next version, then roll it in while the load runs.
	if err := serve.WriteDemoCheckpoint(path, cfg.Rank, 2, cfg.Dims...); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var st serve.LoadStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		st = serve.RunLoad(ctx, rt, fleetLoadOptions(cfg, 1<<20, p.Seed+999))
	}()
	time.Sleep(50 * time.Millisecond) // ramp: the load is running before the reload starts
	rollErr := rt.RollingReload(context.Background())
	time.Sleep(50 * time.Millisecond) // the load keeps running on the reloaded fleet
	cancel()
	wg.Wait()
	if rollErr != nil {
		return nil, fmt.Errorf("experiments: rolling reload: %w", rollErr)
	}

	drill := &FleetReloadDrill{
		Replicas: n,
		Requests: st.Requests,
		Errors:   st.Errors,
		Shed:     st.Shed,
		Reloaded: rt.Stats().Reload.Done,
	}
	if drill.Errors > 0 || drill.Shed > 0 {
		return nil, fmt.Errorf("experiments: rolling reload dropped queries: %d errors, %d shed", drill.Errors, drill.Shed)
	}
	if drill.Reloaded != n {
		return nil, fmt.Errorf("experiments: rolling reload covered %d of %d replicas", drill.Reloaded, n)
	}
	for _, r := range lf.Replicas {
		if got := r.Server.Model().Iter; got != 2 {
			return nil, fmt.Errorf("experiments: replica %s on iter %d after roll, want 2", r.Name, got)
		}
	}
	return drill, nil
}

// RenderFleetBench formats the fleet sweep as a text table.
func RenderFleetBench(r *FleetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet benchmark: %v rank %d, working set %d rows/mode, %d LRU entries/replica\n",
		r.Dims, r.Rank, r.WorkingSet, r.CacheSize)
	fmt.Fprintf(&b, "%9s %7s %9s %10s %10s %10s %10s %9s\n",
		"replicas", "approx", "requests", "qps", "p50(us)", "p99(us)", "recall@k", "hit-rate")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%9d %7v %9d %10.0f %10.1f %10.1f %10.3f %9.2f\n",
			row.Replicas, row.Approx, row.Requests, row.QPS,
			row.P50Micros, row.P99Micros, row.RecallAtK, row.HitRate)
	}
	fmt.Fprintf(&b, "aggregate QPS scaling (exact, %dx replicas): %.2fx\n",
		r.Rows[len(r.Rows)-1].Replicas, r.ScalingX)
	fmt.Fprintf(&b, "rolling reload drill: %d replicas rolled under %d live queries, %d errors, %d shed\n",
		r.Reload.Reloaded, r.Reload.Requests, r.Reload.Errors, r.Reload.Shed)
	return b.String()
}
