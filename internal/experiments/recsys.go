package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/fleet"
	"cstf/internal/la"
	"cstf/internal/rank"
	"cstf/internal/rng"
	"cstf/internal/serve"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

// Recommender benchmark: the end-to-end scenario ROADMAP item 4 asks for.
// A planted (users x items x contexts) implicit-feedback tensor is split
// into train/held-out interactions (rank.Split), the training set is
// further carved into an initial batch and a stream of future
// interactions, and the initial batch is factorized twice — nonnegative CP
// (ncp, checked bitwise-repeatable) and plain CP-ALS. Both models are
// scored as recommenders (HR@K / NDCG@K over the held-out interactions,
// training items excluded) against the popularity baseline; a model that
// cannot beat popularity fails the benchmark. Then the streamed
// interactions flow through the live path — stream.Updater incremental
// update, Publisher checkpoint, hot reload on every replica of a sharded
// serving fleet — measuring per-window freshness lag (event arrival to
// every replica serving the new version) and verifying, each window, that
// the fleet's scatter-gathered TopK with an exclude set is bitwise-equal
// to a single-node scan of the freshly published model. A final
// evaluation scores the streamed-up-to-date model, closing the
// before/after freshness loop. The streamed refreshes run the rule that
// trained the model, so the served model stays nonnegative; a negative
// served factor entry fails the benchmark.

// RecsysBenchConfig sizes the recommender benchmark; tests shrink it.
type RecsysBenchConfig struct {
	Users    int
	Items    int
	Contexts int
	// Groups is the planted interest-group count and the factorization
	// rank — rank.Split and the generator share cfg.GenSeed, so the bench
	// evaluates against the same truth `tensorgen -recsys` emits.
	Groups      int
	NNZ         int     // interactions generated (before dedup)
	Noise       float64 // nonnegative value noise
	GenSeed     uint64  // generator + split seed
	TrainIters  int     // solver sweeps for both ncp and cp-als
	K           int     // ranking cutoff (HR@K, NDCG@K)
	StreamPct   int     // percent of training interactions arriving as the stream
	Windows     int     // streamed delta windows (acceptance needs >= 3)
	Replicas    int     // serving fleet size (sharded scatter-gather)
	FleetProbes int     // exclude-set TopK probes per window
}

// DefaultRecsysBenchConfig returns the `cstf-bench -exp recsys` sizing.
func DefaultRecsysBenchConfig() RecsysBenchConfig {
	return RecsysBenchConfig{
		Users:       600,
		Items:       400,
		Contexts:    4,
		Groups:      4,
		NNZ:         60000,
		Noise:       0.02,
		GenSeed:     11,
		TrainIters:  20,
		K:           10,
		StreamPct:   10,
		Windows:     4,
		Replicas:    3,
		FleetProbes: 5,
	}
}

// RecsysWindowRow is one streamed window's measurements.
type RecsysWindowRow struct {
	Window      int     `json:"window"`
	Events      int     `json:"events"`
	TouchedRows int     `json:"touched_rows"`
	UpdateMs    float64 `json:"update_ms"`
	// LagMs is the freshness lag: event arrival to EVERY fleet replica
	// serving the newly published version.
	LagMs   float64 `json:"lag_ms"`
	Version int     `json:"version"`
	// FleetMatch: every probe's sharded TopK-with-exclude through the
	// router was bitwise-equal to a single-node scan of the same model.
	FleetMatch bool `json:"fleet_topk_match"`
}

// RecsysReport is the machine-readable result (results/BENCH_recsys.json).
type RecsysReport struct {
	Users    int `json:"users"`
	Items    int `json:"items"`
	Contexts int `json:"contexts"`
	Rank     int `json:"rank"`

	NNZ       int `json:"nnz"`        // generated tensor (after dedup)
	TrainNNZ  int `json:"train_nnz"`  // initial training batch
	StreamNNZ int `json:"stream_nnz"` // streamed interactions
	HeldNNZ   int `json:"held_nnz"`   // held-out evaluation cases

	TrainIters int `json:"train_iters"`
	K          int `json:"k"`

	NCPTrainMs float64 `json:"ncp_train_ms"`
	ALSTrainMs float64 `json:"cpals_train_ms"`
	NCPFit     float64 `json:"ncp_fit"`
	ALSFit     float64 `json:"cpals_fit"`
	// BitwiseRepeat: re-running the ncp training with the same seed
	// reproduced lambda and the factors bit for bit.
	BitwiseRepeat bool `json:"bitwise_repeat"`

	Popularity rank.Metrics `json:"popularity"`
	NCP        rank.Metrics `json:"ncp"`
	CPALS      rank.Metrics `json:"cpals"`
	// NCPAfter re-scores the model after all streamed windows are
	// incorporated and hot-reloaded — the "after updates" side of the
	// freshness story (PopularityAfter is its baseline on the same
	// grown training set).
	NCPAfter        rank.Metrics `json:"ncp_after_stream"`
	PopularityAfter rank.Metrics `json:"popularity_after_stream"`

	Rows     []RecsysWindowRow `json:"rows"`
	MaxLagMs float64           `json:"max_lag_ms"`

	Replicas       int    `json:"replicas"`
	Reloads        uint64 `json:"reloads"` // hot reloads summed over replicas
	ShardedQueries uint64 `json:"sharded_queries"`
}

// RecsysBenchWith generates, splits, trains, evaluates, streams, and
// serves. Any invariant violation — a model losing to popularity, a
// non-bitwise ncp repeat, a fleet TopK diverging from single-node, a
// replica that never reloads, a served factor entry below zero after the
// stream — fails the benchmark.
func RecsysBenchWith(p Params, cfg RecsysBenchConfig) (*RecsysReport, error) {
	r := cfg.Groups
	if r < 2 {
		r = 2
	}
	x := tensor.GenRecsys(cfg.GenSeed, cfg.NNZ, cfg.Users, cfg.Items, cfg.Contexts, cfg.Groups, cfg.Noise)
	train, held, err := rank.Split(x, cfg.GenSeed, 0)
	if err != nil {
		return nil, err
	}

	// Carve the training interactions into the initial batch and the
	// stream by a per-entry coordinate hash — deterministic, and disjoint
	// by construction since train's coordinates are unique.
	base := tensor.New(train.Dims...)
	var streamed []tensor.Entry
	order := len(train.Dims)
	for i := range train.Entries {
		e := &train.Entries[i]
		parts := make([]uint64, 0, order+2)
		parts = append(parts, cfg.GenSeed, 0x5EED)
		for n := 0; n < order; n++ {
			parts = append(parts, uint64(e.Idx[n]))
		}
		if int(rng.Hash64(parts...)%100) < cfg.StreamPct {
			streamed = append(streamed, *e)
		} else {
			base.Entries = append(base.Entries, *e)
		}
	}
	if base.NNZ() == 0 || len(streamed) < cfg.Windows {
		return nil, fmt.Errorf("experiments: recsys carve left %d base / %d streamed nonzeros", base.NNZ(), len(streamed))
	}

	rep := &RecsysReport{
		Users: cfg.Users, Items: cfg.Items, Contexts: cfg.Contexts, Rank: r,
		NNZ: x.NNZ(), TrainNNZ: base.NNZ(), StreamNNZ: len(streamed), HeldNNZ: held.NNZ(),
		TrainIters: cfg.TrainIters, K: cfg.K, Replicas: cfg.Replicas,
	}

	// ncp: the shared mode update under the nonnegative rule, three
	// coordinate-descent passes per row problem.
	ncpOpts := cpals.Options{Rank: r, MaxIters: cfg.TrainIters, Seed: p.Seed}
	ncp := cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: 3}}
	benchSettle()
	start := time.Now()
	ncpRes, err := cpals.SolveWith(base, ncpOpts, ncp)
	if err != nil {
		return nil, fmt.Errorf("experiments: recsys ncp training failed: %w", err)
	}
	rep.NCPTrainMs = time.Since(start).Seconds() * 1e3
	rep.NCPFit = ncpRes.Fit()
	repeat, err := cpals.SolveWith(base, ncpOpts, ncp)
	if err != nil {
		return nil, err
	}
	rep.BitwiseRepeat = bitwiseEqual(ncpRes, repeat)
	if !rep.BitwiseRepeat {
		return nil, fmt.Errorf("experiments: recsys ncp repeat was not bitwise-identical")
	}

	benchSettle()
	start = time.Now()
	alsRes, err := cpals.Solve(base, cpals.Options{Rank: r, MaxIters: cfg.TrainIters, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: recsys cp-als training failed: %w", err)
	}
	rep.ALSTrainMs = time.Since(start).Seconds() * 1e3
	rep.ALSFit = alsRes.Fit()

	// Ranking quality before any streamed update, all against the same
	// held-out truths with the same per-user exclusions.
	if rep.Popularity, err = rank.EvalPopularity(base, held, 0, 1, cfg.K); err != nil {
		return nil, err
	}
	mNCP, err := serve.NewModel(la.VecClone(ncpRes.Lambda), cloneFactorList(ncpRes.Factors), 1, 0)
	if err != nil {
		return nil, err
	}
	if rep.NCP, err = rank.EvalModel(mNCP, base, held, 0, 1, cfg.K); err != nil {
		return nil, err
	}
	mALS, err := serve.NewModel(la.VecClone(alsRes.Lambda), cloneFactorList(alsRes.Factors), 1, 0)
	if err != nil {
		return nil, err
	}
	if rep.CPALS, err = rank.EvalModel(mALS, base, held, 0, 1, cfg.K); err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		got  rank.Metrics
	}{{"ncp", rep.NCP}, {"cp-als", rep.CPALS}} {
		if m.got.HR <= rep.Popularity.HR || m.got.NDCG <= rep.Popularity.NDCG {
			return nil, fmt.Errorf("experiments: %s (HR %.3f, NDCG %.3f) did not beat popularity (HR %.3f, NDCG %.3f)",
				m.name, m.got.HR, m.got.NDCG, rep.Popularity.HR, rep.Popularity.NDCG)
		}
	}

	// Live path: updater -> publisher -> watched checkpoint -> sharded
	// fleet. Every replica loads and watches the same published file, so
	// a publish becomes queryable only after each replica hot-reloads.
	u, err := stream.NewUpdaterFromResult(base, ncpRes, p.Seed, 0)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "cstf-recsys-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	pub := stream.NewPublisher(path, p.Seed)
	if _, err := pub.Publish(u, u.Fit()); err != nil {
		return nil, err
	}

	lf, err := fleet.StartLocal(cfg.Replicas, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(path)
	}, serve.Config{}, serve.HandlerConfig{})
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, rp := range lf.Replicas {
		rp.Server.Watch(ctx, path, 2*time.Millisecond)
	}
	rt, err := fleet.New(fleet.Config{
		Replicas:      lf.Configs(),
		Shard:         true,
		ProbeInterval: 50 * time.Millisecond,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	for w := 0; w < cfg.Windows; w++ {
		lo, hi := len(streamed)*w/cfg.Windows, len(streamed)*(w+1)/cfg.Windows
		chunk := streamed[lo:hi]
		start = time.Now()
		st, err := u.ApplyDelta(chunk)
		if err != nil {
			return nil, fmt.Errorf("experiments: recsys window %d update failed: %w", w, err)
		}
		ver, err := pub.Publish(u, u.Fit())
		if err != nil {
			return nil, err
		}
		deadline := time.Now().Add(15 * time.Second)
		for _, rp := range lf.Replicas {
			for rp.Server.Model().Iter != ver {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("experiments: replica %s never reloaded to v%d", rp.Name, ver)
				}
				time.Sleep(2 * time.Millisecond) // poll: each replica's watcher reloads on its own ticker
			}
		}
		lagMs := time.Since(start).Seconds() * 1e3

		// Exclude-set probes: the fleet's scatter-gathered TopK with the
		// user's seen items excluded must be bitwise-equal to a
		// single-node scan of the same published model.
		single, err := serve.LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		match := true
		for j := 0; j < cfg.FleetProbes; j++ {
			user := int(rng.Hash64(cfg.GenSeed, 0xF1EE, uint64(w), uint64(j)) % uint64(cfg.Users))
			excl := seenItemRows(u.Tensor(), 0, 1, user)
			q := serve.Query{Mode: 1, Given: []serve.Cond{{Mode: 0, Row: user}}, K: cfg.K, Exclude: excl}
			got, err := rt.Rank(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("experiments: recsys fleet probe failed: %w", err)
			}
			want, err := single.Rank(q)
			if err != nil {
				return nil, err
			}
			if !sameScoredBits(got, want) {
				match = false
			}
		}
		if !match {
			return nil, fmt.Errorf("experiments: recsys window %d fleet TopK diverged from single-node", w)
		}

		rep.Rows = append(rep.Rows, RecsysWindowRow{
			Window: w, Events: st.Events, TouchedRows: st.TouchedRows,
			UpdateMs: st.DurationMs, LagMs: lagMs, Version: ver, FleetMatch: match,
		})
		if lagMs > rep.MaxLagMs {
			rep.MaxLagMs = lagMs
		}
	}

	for _, rp := range lf.Replicas {
		reloads := rp.Server.Stats().Reloads
		if reloads < uint64(cfg.Windows) {
			return nil, fmt.Errorf("experiments: replica %s reloaded %d times for %d windows", rp.Name, reloads, cfg.Windows)
		}
		rep.Reloads += reloads
	}
	rep.ShardedQueries = rt.Stats().Sharded

	// After the stream: the served model has incorporated every window;
	// u.Tensor() is exactly the full training set again (base and stream
	// partition it), so before/after numbers share held-out truths while
	// the exclusions grow with the new interactions.
	final, err := serve.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	for n := range final.Dims {
		for i, v := range final.Factor(n).Data {
			if v < 0 {
				return nil, fmt.Errorf("experiments: recsys served ncp factor %d entry %d is %g after the stream", n, i, v)
			}
		}
	}
	if rep.NCPAfter, err = rank.EvalModel(final, u.Tensor(), held, 0, 1, cfg.K); err != nil {
		return nil, err
	}
	if rep.PopularityAfter, err = rank.EvalPopularity(u.Tensor(), held, 0, 1, cfg.K); err != nil {
		return nil, err
	}
	return rep, nil
}

// seenItemRows collects the sorted distinct itemMode rows the user row has
// interacted with in t — the exclude set a recommender query carries.
func seenItemRows(t *tensor.COO, userMode, itemMode, user int) []int {
	set := make(map[int]bool)
	for i := range t.Entries {
		if int(t.Entries[i].Idx[userMode]) == user {
			set[int(t.Entries[i].Idx[itemMode])] = true
		}
	}
	out := make([]int, 0, len(set))
	for it := range set {
		out = append(out, it)
	}
	sort.Ints(out)
	return out
}

// sameScoredBits compares ranked results bitwise (index and score bits).
func sameScoredBits(a, b []serve.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func cloneFactorList(fs []*la.Dense) []*la.Dense {
	out := make([]*la.Dense, len(fs))
	for i, f := range fs {
		out[i] = f.Clone()
	}
	return out
}

// RenderRecsysBench formats the recommender report as text tables.
func RenderRecsysBench(r *RecsysReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recommender benchmark: %d users x %d items x %d contexts, %d nnz, rank %d, %d iters\n",
		r.Users, r.Items, r.Contexts, r.NNZ, r.Rank, r.TrainIters)
	fmt.Fprintf(&b, "split: %d train + %d streamed + %d held-out; ncp fit %.4f in %.0f ms (bitwise repeat %v), cp-als fit %.4f in %.0f ms\n",
		r.TrainNNZ, r.StreamNNZ, r.HeldNNZ, r.NCPFit, r.NCPTrainMs, r.BitwiseRepeat, r.ALSFit, r.ALSTrainMs)
	fmt.Fprintf(&b, "%-14s %8s %10s\n", "model", fmt.Sprintf("HR@%d", r.K), fmt.Sprintf("NDCG@%d", r.K))
	row := func(name string, m rank.Metrics) {
		fmt.Fprintf(&b, "%-14s %8.4f %10.4f\n", name, m.HR, m.NDCG)
	}
	row("popularity", r.Popularity)
	row("cp-als", r.CPALS)
	row("ncp", r.NCP)
	row("ncp+stream", r.NCPAfter)
	row("pop+stream", r.PopularityAfter)
	fmt.Fprintf(&b, "%7s %8s %9s %11s %9s %8s %6s\n",
		"window", "events", "touched", "update(ms)", "lag(ms)", "version", "fleet")
	for _, w := range r.Rows {
		fleetCol := "match"
		if !w.FleetMatch {
			fleetCol = "DIFF"
		}
		fmt.Fprintf(&b, "%7d %8d %9d %11.2f %9.2f %8d %6s\n",
			w.Window, w.Events, w.TouchedRows, w.UpdateMs, w.LagMs, w.Version, fleetCol)
	}
	fmt.Fprintf(&b, "freshness: max lag %.2f ms across %d windows; %d replicas, %d hot reloads, %d sharded queries\n",
		r.MaxLagMs, len(r.Rows), r.Replicas, r.Reloads, r.ShardedQueries)
	return b.String()
}
