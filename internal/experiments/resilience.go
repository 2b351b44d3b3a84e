package experiments

import (
	"fmt"

	"cstf/internal/chaos"
	"cstf/internal/ckpt"
	"cstf/internal/cluster"
	"cstf/internal/core"
	"cstf/internal/cpals"
)

// The paper motivates Spark/Hadoop precisely because they are
// fault-tolerant frameworks ("implementations ... on fault-tolerant
// frameworks such as Hadoop and Spark are useful as they can execute in
// data-center settings", Section 1). The sweeps here quantify what that
// tolerance costs: task-level retries under injected failure rates, lineage
// recomputation after a node crash, stragglers with and without speculative
// execution, and the overhead/benefit trade-off of checkpointing.

// ResilienceRow reports one failure rate's steady-state iteration time.
type ResilienceRow struct {
	FailureRate float64
	Seconds     float64
	Failures    int     // injected task failures during the measured iteration
	Overhead    float64 // Seconds / baseline Seconds
}

// ResilienceSweep runs CSTF-COO on delicious3d at 8 nodes under increasing
// injected task-failure rates. The first row is the rate-0 baseline; if it
// is missing or measures zero time the sweep is invalid and an error is
// returned rather than rows with meaningless overhead ratios.
func ResilienceSweep(p Params) ([]ResilienceRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	rates := []float64{0, 0.01, 0.03, 0.05}
	var rows []ResilienceRow
	for _, rate := range rates {
		ctx := p.sparkCtx(8)
		if err := ctx.Cluster.InjectTaskFailures(rate, 1000+uint64(rate*1e4)); err != nil {
			return nil, err
		}
		s := core.NewCOOState(ctx, x, p.Rank, p.Seed)
		before := ctx.Cluster.Metrics()
		for n := 0; n < x.Order(); n++ {
			s.Step(n)
		}
		diff := ctx.Cluster.Metrics().Sub(before)
		rows = append(rows, ResilienceRow{
			FailureRate: rate,
			Seconds:     diff.TotalSimTime(),
			Failures:    diff.TaskFailures,
		})
	}
	if len(rows) == 0 || rows[0].FailureRate != 0 || rows[0].Seconds <= 0 {
		return nil, fmt.Errorf("experiments: resilience sweep has no usable rate-0 baseline")
	}
	baseline := rows[0].Seconds
	for i := range rows {
		rows[i].Overhead = rows[i].Seconds / baseline
	}
	return rows, nil
}

// CrashRow reports one node-crash timing's recovery cost.
type CrashRow struct {
	CrashStage      uint64  // stage the crash lands at (0 = fault-free baseline)
	Seconds         float64 // modeled time of the measured iterations
	RecoverySeconds float64 // of which: crash detection + lineage recomputation
	Recomputed      int     // partitions rebuilt from lineage
	Overhead        float64 // Seconds / baseline Seconds
}

// CrashSweep runs CSTF-COO on delicious3d at 8 nodes for two CP-ALS
// iterations, injecting a single node crash at increasing points of the
// stage timeline. Recovery is Spark's: lost cached partitions are recomputed
// from lineage at their next read, charged to the Recovery phase.
func CrashSweep(p Params) ([]CrashRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	stages := []uint64{0, 2, 8, 16, 32}
	var rows []CrashRow
	for _, at := range stages {
		ctx := p.sparkCtx(8)
		ctx.EnableRecovery()
		if at > 0 {
			ctx.Cluster.SetFaultInjector(chaos.NewPlanFromEvents(
				chaos.Event{Kind: chaos.NodeCrash, Stage: at, Node: 1}))
		}
		s := core.NewCOOState(ctx, x, p.Rank, p.Seed)
		before := ctx.Cluster.Metrics()
		for it := 0; it < 2; it++ {
			for n := 0; n < x.Order(); n++ {
				s.Step(n)
			}
		}
		diff := ctx.Cluster.Metrics().Sub(before)
		rows = append(rows, CrashRow{
			CrashStage:      at,
			Seconds:         diff.TotalSimTime(),
			RecoverySeconds: diff.SimTime[cluster.PhaseRecovery],
			Recomputed:      diff.RecomputedPartitions,
		})
	}
	if len(rows) == 0 || rows[0].CrashStage != 0 || rows[0].Seconds <= 0 {
		return nil, fmt.Errorf("experiments: crash sweep has no usable fault-free baseline")
	}
	baseline := rows[0].Seconds
	for i := range rows {
		rows[i].Overhead = rows[i].Seconds / baseline
	}
	return rows, nil
}

// StragglerRow reports one straggler severity, with and without speculation.
type StragglerRow struct {
	Factor      float64 // compute slowdown of the straggling node (1 = none)
	Seconds     float64 // without speculative execution
	SpecSeconds float64 // with speculative execution (threshold 2)
	Overhead    float64 // Seconds / baseline
	SpecGain    float64 // Seconds / SpecSeconds (>1 means speculation helped)
}

// StragglerSweep runs one CSTF-COO iteration on delicious3d at 8 nodes with
// node 2 slowed by increasing factors, comparing plain execution against
// speculative re-execution.
func StragglerSweep(p Params) ([]StragglerRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	run := func(factor float64, speculate bool) float64 {
		ctx := p.sparkCtx(8)
		if factor > 1 {
			ctx.Cluster.SetFaultInjector(chaos.NewPlanFromEvents(
				chaos.Event{Kind: chaos.Straggler, Stage: 1, Node: 2, Factor: factor, Duration: 1 << 20}))
		}
		if speculate {
			ctx.Cluster.EnableSpeculation(2)
		}
		s := core.NewCOOState(ctx, x, p.Rank, p.Seed)
		before := ctx.Cluster.Metrics()
		for n := 0; n < x.Order(); n++ {
			s.Step(n)
		}
		return ctx.Cluster.Metrics().Sub(before).TotalSimTime()
	}
	factors := []float64{1, 2, 4, 8}
	var rows []StragglerRow
	for _, f := range factors {
		rows = append(rows, StragglerRow{
			Factor:      f,
			Seconds:     run(f, false),
			SpecSeconds: run(f, true),
		})
	}
	if len(rows) == 0 || rows[0].Factor != 1 || rows[0].Seconds <= 0 {
		return nil, fmt.Errorf("experiments: straggler sweep has no usable baseline")
	}
	baseline := rows[0].Seconds
	for i := range rows {
		rows[i].Overhead = rows[i].Seconds / baseline
		if rows[i].SpecSeconds > 0 {
			rows[i].SpecGain = rows[i].Seconds / rows[i].SpecSeconds
		}
	}
	return rows, nil
}

// CheckpointRow reports one checkpoint interval's overhead.
type CheckpointRow struct {
	Every             int     // checkpoint interval in iterations (0 = never)
	Seconds           float64 // modeled time of the measured run
	CheckpointSeconds float64 // of which: replicated checkpoint writes
	Overhead          float64 // Seconds / baseline Seconds
}

// CheckpointSweep runs four CSTF-COO iterations on delicious3d at 8 nodes
// under increasing checkpoint frequency, charging each checkpoint as a
// replicated HDFS write of the full factor set.
func CheckpointSweep(p Params) ([]CheckpointRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	intervals := []int{0, 4, 2, 1}
	var rows []CheckpointRow
	for _, every := range intervals {
		ctx := p.sparkCtx(8)
		opts := cpals.Options{
			Rank: p.Rank, MaxIters: 4, Seed: p.Seed,
			CheckpointEvery: every,
		}
		if every > 0 {
			// The hook only exists to trigger the modeled write; the sweep
			// discards the snapshot itself.
			opts.OnCheckpoint = func(*ckpt.File) error { return nil }
		}
		if _, err := core.SolveCOO(ctx, x, opts); err != nil {
			return nil, err
		}
		m := ctx.Cluster.Metrics()
		rows = append(rows, CheckpointRow{
			Every:             every,
			Seconds:           m.TotalSimTime(),
			CheckpointSeconds: m.SimTime[cluster.PhaseCheckpoint],
		})
	}
	if len(rows) == 0 || rows[0].Every != 0 || rows[0].Seconds <= 0 {
		return nil, fmt.Errorf("experiments: checkpoint sweep has no usable baseline")
	}
	baseline := rows[0].Seconds
	for i := range rows {
		rows[i].Overhead = rows[i].Seconds / baseline
	}
	return rows, nil
}
