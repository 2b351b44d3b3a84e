package dist

import (
	"errors"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// SolveSampled runs randomized ALS (internal/rals) with its MTTKRPs
// executed on remote workers. The solver itself — leverage scoring, sample
// draws, row solves, normalization, grams, exact fits — runs on the
// coordinator via rals.Solve; its Source is the fleet, which receives each
// tensor it is handed (an epoch's sample, or the full tensor in the polish)
// cut into row-aligned shards along the FULL tensor's frozen mode
// partitions (stable across tensors, so a shard key always means the same
// row range). Because the COO MTTKRP accumulates each output row in the
// contracted tensor's stable mode-index order regardless of how entries are
// partitioned, the result is bitwise identical to the serial rals solve for
// every worker count and every task placement.
//
// Factor state is kept resident by full broadcast after every update
// (Config.NoDelta is forced): a sampled mode touches an arbitrary,
// epoch-varying row subset, so the delta machinery's frozen touched-row
// plans do not apply. Config.UseCSF is likewise forced off — the COO worker
// kernel is the one that matches rals.Solve's local kernel bitwise.
//
// Fleet collapse degrades like dist.Solve: on a stage with no live workers
// (MinWorkers >= 0) the source switches to coordinator-local MTTKRPs, which
// are bitwise identical to the distributed ones, so the run completes with
// the same factors it would have produced on a healthy fleet.
func SolveSampled(t *tensor.COO, o rals.Options, cfg Config) (*cpals.Result, Stats, error) {
	start := time.Now()
	if err := o.Validate(t); err != nil {
		return nil, Stats{}, err
	}
	cfg.NoDelta = true
	cfg.UseCSF = false
	s, err := NewSession(t, o.Rank, cfg)
	if err != nil {
		return nil, Stats{WallSeconds: time.Since(start).Seconds()}, err
	}
	defer s.Close()

	order := t.Order()
	src := &remoteSource{
		s:       s,
		ranges:  make([][]tensor.NNZRange, order),
		cur:     make([]*la.Dense, order),
		x:       make([]*tensor.COO, order),
		gen:     make([]int, order),
		shipped: map[*remote]map[shardKey]int{},
		w:       o.Workers(),
	}
	for m := 0; m < order; m++ {
		src.ranges[m] = t.ModeIndex(m).Ranges(len(s.remotes))
	}
	s.lap(&s.stats.Phases.Partition)
	s.TrackFactors(src.cur) // rejoining workers resync from the live factors
	o.Kernel = src

	res, err := rals.Solve(t, o) // shards, factors and stages interleave
	s.lap(&s.stats.Phases.Other)
	st := s.Stats()
	st.Degraded = st.Degraded || src.degraded
	st.WallSeconds = time.Since(start).Seconds()
	return res, st, err
}

// remoteSource is the cpals.Source that runs MTTKRPs on a Session's
// workers. All methods run on the solver goroutine.
type remoteSource struct {
	s      *Session
	ranges [][]tensor.NNZRange // frozen full-tensor row partitions per mode
	cur    []*la.Dense         // live factors, for rejoin resync

	// x[m] is the tensor whose mode-m shards the workers hold; gen[m] counts
	// the tensors it has been, from 1.
	x   []*tensor.COO
	gen []int
	// shipped[r][key] is the gen of the shard worker connection r holds
	// under key (worker side replaces by key). Keyed by connection, not
	// slot: a rejoined worker is a fresh *remote holding nothing.
	shipped map[*remote]map[shardKey]int

	degraded bool
	w        int // coordinator-local parallelism
}

// FactorUpdated broadcasts the updated factor to the fleet (full matrix —
// NoDelta is forced) and records it for rejoin resyncs.
func (k *remoteSource) FactorUpdated(mode int, m *la.Dense) {
	k.cur[mode] = m
	if !k.degraded {
		k.s.FactorUpdate(mode, m)
	}
}

// ship (re)sends x[mode]'s shard for rg to one worker connection, replacing
// whatever that key held there before.
func (k *remoteSource) ship(r *remote, mode int, rg tensor.NNZRange) error {
	x := k.x[mode]
	xmi := x.ModeIndex(mode)
	// The frozen row range, over x's own mode index.
	srg := tensor.NNZRange{RowLo: rg.RowLo, RowHi: rg.RowHi, Lo: int(xmi.RowPtr[rg.RowLo]), Hi: int(xmi.RowPtr[rg.RowHi])}
	key := shardKey{mode, rg.RowLo, rg.RowHi}
	if err := k.s.sendShard(r, key, shardFrame(x, mode, srg, nil)); err != nil {
		return err
	}
	m, ok := k.shipped[r]
	if !ok {
		m = map[shardKey]int{}
		k.shipped[r] = m
	}
	m[key] = k.gen[mode]
	return nil
}

// MTTKRP computes the mode MTTKRP of x into out (zeroed by the caller) as
// a TaskPartialMTTKRP stage over the non-empty shards. A tensor the source
// has not seen for this mode is first shipped to the shards' home slots;
// empty shards are neither shipped nor tasked, and a failed send is left
// for the prep hook to retry wherever the task lands. Output row ranges are
// disjoint, so assembly is pure placement. A NoWorkersError degrades the
// source to coordinator-local MTTKRPs for the rest of the run.
func (k *remoteSource) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, out *la.Dense) error {
	if k.degraded {
		cpals.MTTKRPWorkers(x, mode, factors, k.w, out, nil)
		return nil
	}
	rank := out.Cols
	xmi := x.ModeIndex(mode)
	if x != k.x[mode] {
		k.x[mode] = x
		k.gen[mode]++
		for slot, rg := range k.ranges[mode] {
			if r := k.s.remotes[slot]; r.alive.Load() && xmi.RowPtr[rg.RowLo] < xmi.RowPtr[rg.RowHi] {
				k.ship(r, mode, rg)
			}
		}
	}
	var tasks []*stageTask
	for slot, rg := range k.ranges[mode] {
		rg, slot := rg, slot
		if xmi.RowPtr[rg.RowLo] == xmi.RowPtr[rg.RowHi] {
			continue
		}
		key := shardKey{mode, rg.RowLo, rg.RowHi}
		tasks = append(tasks, &stageTask{
			task: &Task{Kind: TaskPartialMTTKRP, Mode: mode, RowLo: rg.RowLo, RowHi: rg.RowHi},
			home: slot,
			prep: func(r *remote, _ *Task) error {
				if k.shipped[r][key] == k.gen[mode] {
					return nil
				}
				k.s.stats.ShardResends++
				return k.ship(r, mode, rg)
			},
			onResult: func(res *Result) error {
				if res.Rows == nil || res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != rank {
					return errors.New("dist: remote mttkrp: malformed result")
				}
				copy(out.Data[rg.RowLo*rank:rg.RowHi*rank], res.Rows.Data)
				return nil
			},
		})
	}
	err := k.s.runStage(tasks)
	var nw *NoWorkersError
	if errors.As(err, &nw) && k.s.cfg.MinWorkers >= 0 {
		k.s.logf("dist: %v; rals degrading to coordinator-local MTTKRPs", err)
		k.degraded = true
		// Partial stage results may have landed in out: zero it and
		// recompute locally — bitwise identical, the kernel is
		// partition-independent.
		la.RowBlocksApply(k.w, out.Rows, func(lo, hi int) {
			d := out.Data[lo*rank : hi*rank]
			for i := range d {
				d[i] = 0
			}
		})
		cpals.MTTKRPWorkers(x, mode, factors, k.w, out, nil)
		return nil
	}
	return err
}
