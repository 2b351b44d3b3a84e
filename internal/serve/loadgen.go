package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"cstf/internal/rng"
)

// Closed-loop load generator: N concurrent clients issue a deterministic
// (per seed) mix of queries against a Querier, each client sending its
// next request only after the previous one completes — the standard
// closed-loop model whose measured latency includes queueing, batching,
// and cache effects. Used by the serving tests, `cstf-router -smoke` and
// the fleet benchmark (`cstf-bench -exp fleet`), which point it at a Router
// instead of a Server. One server's end-to-end QPS and latency over HTTP
// are timed by `go run ./bench -workload serve-stream`.

// Querier is the query surface RunLoad drives: a single in-process Server
// or a fleet Router fanning the same calls out over HTTP.
type Querier interface {
	Dims() []int
	Predict(ctx context.Context, idx ...int) (float64, error)
	Rank(ctx context.Context, q Query) ([]Scored, error)
}

// LoadOptions configures one load-generation run.
type LoadOptions struct {
	Clients  int     // concurrent closed-loop clients (default 4)
	Requests int     // total requests across all clients (default 1000)
	K        int     // k of ranked queries (default 10)
	Seed     uint64  // deterministic request-stream seed
	Predict  float64 // fraction of predict queries (default 0.2)
	Similar  float64 // fraction of similar queries (default 0.1; rest TopK)
	// WorkingSet, when positive, bounds every drawn row to [0,
	// WorkingSet) per mode (clamped to the mode's size): the bounded
	// universe of distinct queries that makes cache capacity — one
	// node's versus a fleet's aggregate — the measured variable.
	WorkingSet int
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.Predict == 0 {
		o.Predict = 0.2
	}
	if o.Similar == 0 {
		o.Similar = 0.1
	}
	return o
}

// LoadStats summarizes one load run.
type LoadStats struct {
	Clients  int           `json:"clients"`
	Requests int           `json:"requests"` // completed successfully
	Errors   int           `json:"errors"`   // failed (excluding shed)
	Shed     int           `json:"shed"`     // ErrOverloaded responses
	Elapsed  time.Duration `json:"-"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"-"`
	P95      time.Duration `json:"-"`
	P99      time.Duration `json:"-"`
}

// RunLoad drives the querier with o.Clients closed-loop clients until
// o.Requests requests have been issued, and reports throughput and latency
// percentiles over the successful requests.
func RunLoad(ctx context.Context, s Querier, o LoadOptions) LoadStats {
	o = o.withDefaults()
	dims := s.Dims()
	order := len(dims)

	perClient := o.Requests / o.Clients
	if perClient == 0 {
		perClient = 1
	}
	lats := make([][]time.Duration, o.Clients)
	var mu sync.Mutex
	var totalErrs, totalShed int

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := rng.New(rng.Hash64(o.Seed, uint64(c)))
			myLats := make([]time.Duration, 0, perClient)
			myErrs, myShed := 0, 0
			for i := 0; i < perClient; i++ {
				if ctx.Err() != nil {
					break
				}
				kindDraw := g.Float64()
				mode := g.Intn(order)
				row := func(n int) int {
					d := dims[n]
					if o.WorkingSet > 0 && o.WorkingSet < d {
						d = o.WorkingSet
					}
					return g.Intn(d)
				}
				t0 := time.Now()
				var err error
				switch {
				case kindDraw < o.Predict:
					idx := make([]int, order)
					for n := range idx {
						idx[n] = row(n)
					}
					_, err = s.Predict(ctx, idx...)
				case kindDraw < o.Predict+o.Similar:
					_, err = s.Rank(ctx, Query{Kind: Similar, Mode: mode, Row: row(mode), K: o.K})
				default:
					given := DefaultGiven(mode)
					_, err = s.Rank(ctx, Query{Mode: mode, Given: []Cond{{given, row(given)}}, K: o.K})
				}
				switch {
				case err == nil:
					myLats = append(myLats, time.Since(t0))
				case ctx.Err() != nil:
					// The run was cancelled mid-request: not a failure of
					// the system under test.
				case errors.Is(err, ErrOverloaded):
					myShed++
				default:
					myErrs++
				}
			}
			mu.Lock()
			lats[c] = myLats
			totalErrs += myErrs
			totalShed += myShed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	st := LoadStats{
		Clients:  o.Clients,
		Requests: len(all),
		Errors:   totalErrs,
		Shed:     totalShed,
		Elapsed:  elapsed,
		P50:      percentile(all, 0.50),
		P95:      percentile(all, 0.95),
		P99:      percentile(all, 0.99),
	}
	if elapsed > 0 {
		st.QPS = float64(len(all)) / elapsed.Seconds()
	}
	return st
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
