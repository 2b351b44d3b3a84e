package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cstf/internal/dist"
	"cstf/internal/rng"
	"cstf/internal/serve"
)

// ErrNoReplicas is returned when every replica is dead or draining.
var ErrNoReplicas = errors.New("fleet: no live replicas")

// Replica names one serve replica the router fronts.
type Replica struct {
	// Name is the ring member identity — stable across restarts (use the
	// host:port), because the ring is a pure function of the name set.
	Name string `json:"name"`
	// URL is the replica's base HTTP URL, e.g. http://127.0.0.1:8081.
	URL string `json:"url"`
}

// Config tunes a Router. Zero values select the documented defaults.
type Config struct {
	Replicas []Replica
	// Shard scatter-gathers every ranked query across all live replicas
	// as contiguous row ranges merged with serve.MergeTopK,
	// instead of affinity-routing the whole query to one replica. Sharding
	// divides per-query scan work by the fleet size; affinity multiplies
	// aggregate cache capacity by it. Pick by workload: sharding for huge
	// modes with a flat query distribution, affinity for skewed traffic.
	Shard bool
	// Retry is the probe backoff schedule: a live replica is evicted only
	// after a full Retry.Do cycle of failed health checks, so one dropped
	// probe never flaps the ring.
	Retry dist.RetryPolicy
	// ProbeInterval is the health-check period (default 250ms).
	ProbeInterval time.Duration
	// Timeout bounds each replica HTTP call (default 5s).
	Timeout time.Duration
	// Logf, when non-nil, receives operational log lines (evictions,
	// re-admissions, reload progress).
	Logf func(format string, args ...any)
}

// member is one replica plus its routing state.
type member struct {
	name string
	url  string
	c    *client

	alive    atomic.Bool // health-checked up
	draining atomic.Bool // router-side: excluded from the ring during its reload step

	version atomic.Uint64 // model version from the last successful probe

	routed     atomic.Uint64 // queries (or shards) sent here
	retries    atomic.Uint64 // queries re-sent here after another replica failed
	errs       atomic.Uint64 // failed calls to this replica
	evictions  atomic.Uint64
	readmitted atomic.Uint64
}

// Router spreads queries across a fleet of serve replicas. It is
// stateless: every routing decision is a pure function of the (health-
// filtered) member set and the query key, so any number of router
// processes in front of the same fleet agree on placement.
type Router struct {
	cfg     Config
	members []*member // sorted by name; fixed for the router's lifetime
	dims    []int

	mu   sync.RWMutex
	ring *Ring // over routable (alive, not draining) member names; nil if none

	reloadMu sync.Mutex
	reload   ReloadProgress

	queries   atomic.Uint64
	failovers atomic.Uint64 // queries answered by a non-first-choice replica
	noReplica atomic.Uint64
	shardOps  atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
	done      sync.WaitGroup
}

// New builds a router over cfg.Replicas, waits (under cfg.Retry) for at
// least one replica to answer /healthz — taking the fleet's mode sizes
// from it — and starts the health prober. Callers must Close it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one replica")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	rt := &Router{cfg: cfg, closed: make(chan struct{})}
	seen := map[string]bool{}
	for _, r := range cfg.Replicas {
		if r.Name == "" || r.URL == "" {
			return nil, fmt.Errorf("fleet: replica needs name and url (got %+v)", r)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
		rt.members = append(rt.members, &member{name: r.Name, url: r.URL, c: newClient(r.URL, cfg.Timeout)})
	}
	sort.Slice(rt.members, func(a, b int) bool { return rt.members[a].name < rt.members[b].name })

	// Initial probe: mark whoever answers as alive, learn the dims from
	// the first answer, and insist on at least one live replica.
	var dims []int
	err := cfg.Retry.Do(rng.HashAny("fleet-start"), rt.closed, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), rt.probeTimeout())
		defer cancel()
		var wg sync.WaitGroup
		for _, m := range rt.members {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				h, err := m.c.health(ctx)
				if err == nil {
					m.alive.Store(true)
					m.version.Store(h.Version)
					if len(h.Dims) > 0 {
						rt.mu.Lock()
						if dims == nil {
							dims = h.Dims
						}
						rt.mu.Unlock()
					}
				}
			}(m)
		}
		wg.Wait()
		if dims == nil {
			return fmt.Errorf("fleet: no replica reachable")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt.dims = dims
	rt.rebuildRing()
	rt.done.Add(1)
	go rt.probeLoop()
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

func (rt *Router) probeTimeout() time.Duration {
	if rt.cfg.Timeout > 0 {
		return rt.cfg.Timeout
	}
	return 2 * time.Second
}

// Close stops the prober. It does not touch the replicas.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.closed) })
	rt.done.Wait()
}

// Dims returns the fleet's mode sizes (Querier surface).
func (rt *Router) Dims() []int { return rt.dims }

// rebuildRing recomputes the ring over routable members. Callers flip
// alive/draining flags first, then rebuild.
func (rt *Router) rebuildRing() {
	var names []string
	for _, m := range rt.members {
		if m.alive.Load() && !m.draining.Load() {
			names = append(names, m.name)
		}
	}
	var ring *Ring
	if len(names) > 0 {
		ring, _ = NewRing(names) // names are validated unique at New
	}
	rt.mu.Lock()
	rt.ring = ring
	rt.mu.Unlock()
}

// routable returns the members currently in the ring, in name order.
func (rt *Router) routable() []*member {
	out := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		if m.alive.Load() && !m.draining.Load() {
			out = append(out, m)
		}
	}
	return out
}

func (rt *Router) byName(name string) *member {
	i := sort.Search(len(rt.members), func(i int) bool { return rt.members[i].name >= name })
	if i < len(rt.members) && rt.members[i].name == name {
		return rt.members[i]
	}
	return nil
}

// owner resolves the affinity target for a query key, or nil.
func (rt *Router) owner(key uint64) *member {
	rt.mu.RLock()
	ring := rt.ring
	rt.mu.RUnlock()
	if ring == nil {
		return nil
	}
	return rt.byName(ring.Owner(key))
}

// call runs f against the key's affinity owner, failing over in name
// order across the remaining routable replicas.
func (rt *Router) call(key uint64, f func(m *member) error) error {
	rt.queries.Add(1)
	first := rt.owner(key)
	if first == nil {
		rt.noReplica.Add(1)
		return ErrNoReplicas
	}
	return rt.failover(first, rt.routable, f)
}

// failover runs f on first and, while it fails with a retriable error, on
// each other member of others() in order. A terminal error — a bad
// request every replica would reject — propagates immediately.
func (rt *Router) failover(first *member, others func() []*member, f func(m *member) error) error {
	err := rt.try(first, f)
	if err == nil || !retriableElsewhere(err) {
		return err
	}
	for _, m := range others() {
		if m == first {
			continue
		}
		m.retries.Add(1)
		rt.failovers.Add(1)
		if err = rt.try(m, f); err == nil || !retriableElsewhere(err) {
			return err
		}
	}
	return err
}

// try runs f on m, counting the call and any failure against m.
func (rt *Router) try(m *member, f func(m *member) error) error {
	m.routed.Add(1)
	err := f(m)
	if err != nil {
		m.errs.Add(1)
	}
	return err
}

// Predict routes one reconstruction query by the hash of its full index
// tuple.
func (rt *Router) Predict(ctx context.Context, idx ...int) (float64, error) {
	parts := make([]uint64, 0, len(idx)+1)
	parts = append(parts, 0x9d)
	for _, i := range idx {
		parts = append(parts, uint64(i))
	}
	var v float64
	err := rt.call(rng.Hash64(parts...), func(m *member) error {
		var err error
		v, err = m.c.predict(ctx, idx)
		return err
	})
	return v, err
}

// Rank answers a ranked query. Affinity mode routes the whole query by
// its anchor (Query.Anchor: a TopK's first fixed coordinate, Similar's
// row), so repeats hit the same replica's cache; shard mode scatter-
// gathers row ranges of the queried mode across the fleet and merges,
// bitwise-identical to one full scan. Each replica takes its approximate
// budget from its own Config, so a query with a Budget is refused.
func (rt *Router) Rank(ctx context.Context, q serve.Query) ([]serve.Scored, error) {
	if q.Budget != 0 {
		rt.queries.Add(1)
		return nil, &replicaError{code: 400, msg: fmt.Sprintf("budget %d: a replica takes its budget from its own Config", q.Budget)}
	}
	if rt.cfg.Shard {
		return rt.sharded(ctx, q)
	}
	a, tag := q.Anchor(), uint64(0x70)
	if q.Kind == serve.Similar {
		tag = 0x51
	}
	var res []serve.Scored
	err := rt.call(rng.Hash64(tag, uint64(a.Mode), uint64(a.Row)), func(m *member) error {
		var err error
		res, err = m.c.rank(ctx, q)
		return err
	})
	return res, err
}

// sharded scatter-gathers one ranked query: its candidate rows (the whole
// mode unless q names a range) are split into one contiguous range per
// routable replica, each range is answered in parallel with the exact
// range scan — every range gets q's exclude set — and the partial top-k
// sets merge under the shared tie-break order. Because every replica
// holds the full model, a failed range is re-served by any surviving
// replica rather than lost.
func (rt *Router) sharded(ctx context.Context, q serve.Query) ([]serve.Scored, error) {
	rt.queries.Add(1)
	if q.Mode < 0 || q.Mode >= len(rt.dims) {
		return nil, &replicaError{code: 400, msg: fmt.Sprintf("mode %d out of range", q.Mode)}
	}
	lo, rows := 0, rt.dims[q.Mode]
	if rg := q.Range; rg != nil {
		if rg.Lo < 0 || rg.Hi > rows || rg.Lo > rg.Hi {
			return nil, &replicaError{code: 400, msg: fmt.Sprintf("range [%d,%d) invalid for mode %d with %d rows", rg.Lo, rg.Hi, q.Mode, rows)}
		}
		lo, rows = rg.Lo, rg.Hi-rg.Lo
	}
	targets := rt.routable()
	if len(targets) == 0 {
		rt.noReplica.Add(1)
		return nil, ErrNoReplicas
	}
	rt.shardOps.Add(1)
	n := len(targets)
	partials := make([][]serve.Scored, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s, m := range targets {
		sq := q
		sq.Range = &serve.Range{Lo: lo + s*rows/n, Hi: lo + (s+1)*rows/n}
		if sq.Range.Lo == sq.Range.Hi {
			continue
		}
		wg.Add(1)
		go func(s int, m *member) {
			defer wg.Done()
			errs[s] = rt.failover(m, func() []*member { return targets }, func(m *member) error {
				var err error
				partials[s], err = m.c.rank(ctx, sq)
				return err
			})
		}(s, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return serve.MergeTopK(q.K, partials...), nil
}

// probeLoop health-checks every replica each ProbeInterval, in parallel.
// A live replica that fails a probe gets a full Retry.Do cycle of backed-
// off re-checks before eviction (one dropped packet never flaps the
// ring); an evicted replica that answers again is re-admitted at once.
func (rt *Router) probeLoop() {
	defer rt.done.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, m := range rt.members {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				rt.probe(m)
			}(m)
		}
		wg.Wait()
	}
}

func (rt *Router) probe(m *member) {
	check := func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), rt.probeTimeout())
		defer cancel()
		h, err := m.c.health(ctx)
		if err != nil {
			return err
		}
		m.version.Store(h.Version)
		return nil
	}
	if !m.alive.Load() {
		if check(0) == nil {
			m.alive.Store(true)
			m.readmitted.Add(1)
			rt.rebuildRing()
			rt.logf("fleet: replica %s recovered, re-admitted", m.name)
		}
		return
	}
	if check(0) == nil {
		return
	}
	// Suspect: give it the full backoff schedule before evicting.
	if err := rt.cfg.Retry.Do(rng.HashAny(m.name), rt.closed, check); err != nil {
		m.alive.Store(false)
		m.evictions.Add(1)
		rt.rebuildRing()
		rt.logf("fleet: replica %s failed health checks, evicted: %v", m.name, err)
	}
}
