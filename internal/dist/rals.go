package dist

import (
	"errors"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// SolveSampled runs randomized ALS (internal/rals) with the sampled MTTKRPs
// executed on remote workers. The solver itself — leverage scoring, sample
// draws, row solves, normalization, grams, exact fits — runs on the
// coordinator via rals.Solve; only the per-epoch sampled tensors are shipped
// out, cut into row-aligned shards along the FULL tensor's frozen mode
// partitions (stable across epochs, so a shard key always means the same
// row range). Because the sampled MTTKRP accumulates each output row in the
// sampled tensor's stable mode-index order regardless of how entries are
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
// (MinWorkers >= 0) the kernel switches to coordinator-local sampled
// MTTKRPs, which are bitwise identical to the distributed ones, so the run
// completes with the same factors it would have produced on a healthy
// fleet.
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
	W := len(s.remotes)
	k := &ralsKernel{
		s:       s,
		ranges:  make([][]tensor.NNZRange, order),
		cur:     make([]*la.Dense, order),
		shipped: map[*remote]map[shardKey]int{},
		w:       o.Workers(),
	}
	for m := 0; m < order; m++ {
		k.ranges[m] = t.ModeIndex(m).Ranges(W)
	}
	s.lap(&s.stats.Phases.Partition)
	s.TrackFactors(k.cur) // rejoining workers resync from the live factors
	o.Kernel = k

	res, err := rals.Solve(t, o) // shards, factors and stages interleave per epoch
	s.lap(&s.stats.Phases.Other)
	st := s.Stats()
	st.Degraded = st.Degraded || k.degraded
	st.WallSeconds = time.Since(start).Seconds()
	return res, st, err
}

// ralsKernel is the rals.Kernel that distributes sampled MTTKRPs over a
// Session. All methods run on the solver goroutine.
type ralsKernel struct {
	s      *Session
	ranges [][]tensor.NNZRange // frozen full-tensor row partitions per mode
	cur    []*la.Dense         // live factors, for rejoin resync

	epoch   int
	sampled []*tensor.COO

	// shipped[r][key] is 1+epoch of the sampled shard worker connection r
	// holds under key (worker side replaces by key). Keyed by connection,
	// not slot: a rejoined worker is a fresh *remote holding nothing.
	shipped map[*remote]map[shardKey]int

	degraded bool
	w        int // coordinator-local parallelism
}

// FactorUpdated broadcasts the updated factor to the fleet (full matrix —
// NoDelta is forced) and records it for rejoin resyncs.
func (k *ralsKernel) FactorUpdated(mode int, m *la.Dense) {
	k.cur[mode] = m
	if !k.degraded {
		k.s.FactorUpdate(mode, m)
	}
}

// Epoch installs a new epoch's sampled tensors and ships each sampled
// mode's shards to their home slots. Empty shards are neither shipped nor
// later tasked; a failed send is left for the MTTKRP prep hook to retry
// wherever the task lands.
func (k *ralsKernel) Epoch(epoch int, sampled []*tensor.COO) error {
	k.epoch = epoch
	k.sampled = sampled
	if k.degraded {
		return nil
	}
	for m, sm := range sampled {
		if sm == nil {
			continue
		}
		smi := sm.ModeIndex(m)
		for slot, rg := range k.ranges[m] {
			if smi.RowPtr[rg.RowLo] == smi.RowPtr[rg.RowHi] {
				continue
			}
			r := k.s.remotes[slot]
			if !r.alive.Load() {
				continue
			}
			k.ship(r, m, rg)
		}
	}
	return nil
}

// ship (re)sends the current epoch's sampled shard for (mode, rg) to one
// worker connection, replacing whatever that key held there before.
func (k *ralsKernel) ship(r *remote, mode int, rg tensor.NNZRange) error {
	sm := k.sampled[mode]
	smi := sm.ModeIndex(mode)
	// The frozen row range, over the sampled tensor's own mode index.
	srg := tensor.NNZRange{RowLo: rg.RowLo, RowHi: rg.RowHi, Lo: int(smi.RowPtr[rg.RowLo]), Hi: int(smi.RowPtr[rg.RowHi])}
	key := shardKey{mode, rg.RowLo, rg.RowHi}
	if err := k.s.sendShard(r, key, shardFrame(sm, mode, srg, nil)); err != nil {
		return err
	}
	m, ok := k.shipped[r]
	if !ok {
		m = map[shardKey]int{}
		k.shipped[r] = m
	}
	m[key] = 1 + k.epoch
	return nil
}

// MTTKRP computes the sampled mode MTTKRP into out (zeroed by the caller)
// as a TaskPartialMTTKRP stage over the non-empty shards. Output row ranges
// are disjoint, so assembly is pure placement. A NoWorkersError degrades
// the kernel to coordinator-local sampled MTTKRPs for the rest of the run.
func (k *ralsKernel) MTTKRP(mode int, factors []*la.Dense, out *la.Dense) error {
	sm := k.sampled[mode]
	if k.degraded {
		cpals.MTTKRPWorkers(sm, mode, factors, k.w, out, nil)
		return nil
	}
	rank := out.Cols
	smi := sm.ModeIndex(mode)
	var tasks []*stageTask
	for slot, rg := range k.ranges[mode] {
		rg, slot := rg, slot
		if smi.RowPtr[rg.RowLo] == smi.RowPtr[rg.RowHi] {
			continue
		}
		key := shardKey{mode, rg.RowLo, rg.RowHi}
		tasks = append(tasks, &stageTask{
			task: &Task{Kind: TaskPartialMTTKRP, Mode: mode, RowLo: rg.RowLo, RowHi: rg.RowHi},
			home: slot,
			prep: func(r *remote, _ *Task) error {
				if k.shipped[r][key] == 1+k.epoch {
					return nil
				}
				k.s.stats.ShardResends++
				return k.ship(r, mode, rg)
			},
			onResult: func(res *Result) error {
				if res.Rows == nil || res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != rank {
					return errors.New("dist: sampled mttkrp: malformed result")
				}
				copy(out.Data[rg.RowLo*rank:rg.RowHi*rank], res.Rows.Data)
				return nil
			},
		})
	}
	err := k.s.runStage(tasks)
	var nw *NoWorkersError
	if errors.As(err, &nw) && k.s.cfg.MinWorkers >= 0 {
		k.s.logf("dist: %v; rals degrading to coordinator-local sampled MTTKRPs", err)
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
		cpals.MTTKRPWorkers(sm, mode, factors, k.w, out, nil)
		return nil
	}
	return err
}
