package dist

import (
	"errors"
	"fmt"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// Solve runs cpals.SolveWith with the mode update u — any tier's — over a
// remote Source in place of u.Source. The coordinator keeps everything but
// the MTTKRPs, so the result is bitwise identical to the local COO kernel's
// (the CSF kernel's under Config.UseCSF) for every worker count and every
// task placement, including placements forced by worker deaths. The
// options are validated here; the tier's own by whatever built its Update.
//
// Without a Sampler, the tensor's shards ship once, at session start, and
// each factor update reaches a worker as a delta of the rows its shards
// read. A Sampler's updates contract tensors the fleet has not seen (an
// epoch's sample, or the full tensor in the polish); each ships when first
// seen, cut along the full tensor's frozen mode partitions, and the COO
// kernel accumulates each output row in the contracted tensor's stable
// mode-index order however its entries are partitioned. A sampled mode
// touches an epoch-varying row subset, so factors go by full broadcast
// (noDelta) and the workers run the COO kernel (not UseCSF).
//
// The returned Stats are real measurements (wall clock, bytes on sockets),
// populated even when the solve fails partway. Fleet collapse degrades the
// source in place (see Config.MinWorkers): the run completes with the same
// bits.
func Solve(t *tensor.COO, opts cpals.Options, u cpals.Update, cfg Config) (*cpals.Result, Stats, error) {
	if err := opts.Validate(t); err != nil {
		return nil, Stats{}, err
	}
	if u.Sampler != nil {
		cfg.noDelta = true
		cfg.UseCSF = false
	}
	start := time.Now()
	s, err := NewSession(t, opts.Rank, cfg)
	if err != nil {
		return nil, Stats{WallSeconds: time.Since(start).Seconds()}, err
	}
	defer s.Close()
	w := opts.Workers()
	src := &remoteSource{s: s, w: w, cur: make([]*la.Dense, t.Order()), x: make([]*tensor.COO, t.Order())}
	// The cut points depend only on (tensor, workers), so re-runs — and
	// reassignments within a run — see identical tasks.
	for _, mi := range t.ModeIndexes(w) {
		src.ranges = append(src.ranges, mi.Ranges(len(s.remotes)))
	}
	s.lap(&s.stats.Phases.Partition)
	s.TrackFactors(src.cur) // rejoining workers resync from the live factors
	if u.Sampler == nil {
		s.shipShards(src.ranges)
		for m := range src.x {
			src.x[m] = t
		}
		s.lap(&s.stats.Phases.ShardShip)
	}
	// A scheduled TornWrite fires right after the checkpoint hook: it
	// damages the file just written, simulating a crash mid-write that a
	// later resume must detect.
	if hook := opts.OnCheckpoint; hook != nil && s.cfg.OnTornWrite != nil && s.cfg.Plan != nil {
		opts.OnCheckpoint = func(cp *ckpt.File) error {
			if err := hook(cp); err != nil {
				return err
			}
			if len(s.cfg.Plan.TakeEvents(s.stageSeq, chaos.TornWrite)) > 0 {
				s.logf("dist: chaos tears the checkpoint written at iteration %d", cp.Iter)
				s.cfg.OnTornWrite(cp.Iter)
			}
			return nil
		}
	}
	u.Source = src
	res, err := cpals.SolveWith(t, opts, u)
	s.lap(&s.stats.Phases.Other)
	st := s.Stats()
	st.WallSeconds = time.Since(start).Seconds()
	return res, st, err
}

// remoteSource is the cpals.Source that runs MTTKRPs on a Session's
// workers: one stage per MTTKRP, one task per non-empty row range, each
// task's rows computed where that range's shard is resident. All methods run
// on the solver goroutine.
type remoteSource struct {
	s      *Session
	w      int                 // coordinator-local parallelism
	ranges [][]tensor.NNZRange // frozen full-tensor row partitions per mode
	cur    []*la.Dense         // live factors, for rejoin resync
	// x[m] is the tensor the fleet was last handed for mode m.
	x []*tensor.COO
	// local is the coordinator's own kernel once the fleet has collapsed.
	local cpals.Source
	// started is set by the first MTTKRP: coordinator work before it is
	// factor-init, after it local.
	started bool
}

// lapLocal closes the span of coordinator work that ends at a remote
// operation.
func (k *remoteSource) lapLocal() {
	if k.started {
		k.s.lap(&k.s.stats.Phases.Local)
	} else {
		k.s.lap(&k.s.stats.Phases.FactorInit)
	}
}

// FactorUpdated ships the updated factor to the fleet — a delta of the rows
// each worker reads, or the full matrix under noDelta — and records it for
// rejoin resyncs. Once the fleet has collapsed it goes to the local kernel.
func (k *remoteSource) FactorUpdated(mode int, f *la.Dense, zero []uint64) {
	k.lapLocal()
	k.cur[mode] = f
	if k.local == nil {
		k.s.FactorUpdate(mode, f)
	} else {
		k.local.FactorUpdated(mode, f, zero)
	}
	k.s.lap(&k.s.stats.Phases.FactorUpdate)
}

// MTTKRP computes the mode MTTKRP of x into out (zeroed by the caller) on
// the workers, every row whatever rows lists. Output row ranges are
// disjoint, so assembly is pure placement and each row's bits match the
// shared-memory kernel's.
//
// The live-worker floor is checked before each iteration's first MTTKRP;
// below it, or on a stage that finds no live worker, the source degrades to
// the kernel SolveWith would have picked locally — COO, or CSF under
// UseCSF — for the rest of the run. That kernel is bitwise identical to the
// workers', so the run completes with the same bits.
func (k *remoteSource) MTTKRP(x *tensor.COO, mode int, factors []*la.Dense, rows []int, out *la.Dense) error {
	k.lapLocal()
	k.started = true
	defer k.s.lap(&k.s.stats.Phases.MTTKRPWait)
	if floor := k.s.minWorkers(); k.local == nil && mode == 0 && floor >= 0 {
		if live := k.s.Alive(); live < floor {
			k.degrade(&NoWorkersError{Stage: k.s.stageSeq, Live: live, Floor: floor})
		}
	}
	if k.local != nil {
		return k.local.MTTKRP(x, mode, factors, rows, out)
	}
	err := k.remote(x, mode, factors, out)
	var nw *NoWorkersError
	if errors.As(err, &nw) && k.s.cfg.MinWorkers >= 0 {
		k.degrade(err)
		clear(out.Data) // partial stage results may have landed
		return k.local.MTTKRP(x, mode, factors, rows, out)
	}
	return err
}

func (k *remoteSource) degrade(err error) {
	k.s.logf("dist: %v; degrading to coordinator-local MTTKRPs", err)
	k.s.stats.Degraded = true
	if k.s.cfg.UseCSF {
		k.local = cpals.NewCSFSource(k.s.t, k.w)
	} else {
		k.local = &cpals.COOSource{Workers: k.w}
	}
}

// remote runs the MTTKRP stage. Ranges with no nonzero of x are neither
// shipped nor tasked. A task's prep readies whichever worker it lands on:
// off its home slot, the input factors are brought current; a connection
// not holding x's shard for the range gets it shipped.
func (k *remoteSource) remote(x *tensor.COO, mode int, factors []*la.Dense, out *la.Dense) error {
	rank := out.Cols
	xmi := x.ModeIndex(mode)
	fresh := x != k.x[mode]
	k.x[mode] = x
	var tasks []*stageTask
	for slot, rg := range k.ranges[mode] {
		// The frozen row range, over x's own mode index.
		srg := tensor.NNZRange{RowLo: rg.RowLo, RowHi: rg.RowHi, Lo: int(xmi.RowPtr[rg.RowLo]), Hi: int(xmi.RowPtr[rg.RowHi])}
		if srg.Lo == srg.Hi {
			continue
		}
		key := shardKey{mode, rg.RowLo, rg.RowHi}
		tasks = append(tasks, &stageTask{
			task: &Task{Kind: TaskPartialMTTKRP, Mode: mode, RowLo: rg.RowLo, RowHi: rg.RowHi},
			home: slot,
			prep: func(r *remote) error {
				if r.slot != slot {
					for m, f := range factors {
						if m == mode {
							continue
						}
						if err := k.s.ensureCurrent(r, m, f); err != nil {
							return err
						}
					}
				}
				if r.shards[key] == x {
					return nil
				}
				if !fresh || r.slot != slot {
					k.s.stats.ShardResends++
				}
				return k.s.sendShard(r, key, x, shardFrame(x, mode, srg, nil))
			},
			onResult: func(res *Result) error {
				if res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != rank {
					return fmt.Errorf("dist: mttkrp mode %d rows [%d,%d): malformed result", mode, rg.RowLo, rg.RowHi)
				}
				copy(out.Data[rg.RowLo*rank:rg.RowHi*rank], res.Rows.Data)
				return nil
			},
		})
	}
	return k.s.runStage(tasks)
}
