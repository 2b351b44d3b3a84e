// Package experiments regenerates every result table and figure of the
// paper's evaluation (Section 6): Figure 2 (3rd-order CP-ALS runtimes vs
// cluster size), Figure 3 (4th-order runtimes), Figure 4 (remote/local
// shuffle bytes per MTTKRP mode), Figure 5 (per-mode MTTKRP runtimes), and
// Tables 4-5. All runners execute the real algorithms on scaled synthetic
// datasets (internal/workload) over the simulated cluster, with
// SetWorkScale producing full-scale-equivalent modeled runtimes.
package experiments

import (
	"cstf/internal/bigtensor"
	"cstf/internal/cluster"
	"cstf/internal/core"
	"cstf/internal/mapreduce"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
	"cstf/internal/workload"
)

// Params configures an experiment run. The defaults reproduce the paper's
// setup: rank 2, Comet-profile nodes, datasets scaled to 1/1000.
type Params struct {
	Scale   float64 // dataset scale in (0, 1]
	Rank    int
	Seed    uint64
	Profile cluster.Profile
}

// DefaultParams returns the paper-faithful configuration.
func DefaultParams() Params {
	return Params{Scale: 1e-3, Rank: 2, Seed: 42, Profile: cluster.CometProfile()}
}

// PaperNodes is the cluster-size sweep of Figures 2 and 3.
var PaperNodes = []int{4, 8, 16, 32}

// newCluster builds a simulated cluster whose modeled time compensates for
// the dataset scale.
func (p Params) newCluster(nodes int) *cluster.Cluster {
	c := cluster.New(nodes, p.Profile)
	c.SetWorkScale(1 / p.Scale)
	return c
}

// sparkCtx builds an rdd context with the experiment partitioning
// discipline (one partition per core, the Spark default for these sweeps).
func (p Params) sparkCtx(nodes int) *rdd.Context {
	return rdd.NewContext(p.newCluster(nodes), nodes*p.Profile.CoresPerNode)
}

// rddContext builds a context on an existing cluster with an explicit
// partition count (the task-granularity ablation varies it).
func rddContext(c *cluster.Cluster, parts int) *rdd.Context {
	return rdd.NewContext(c, parts)
}

// hadoopEnv builds a MapReduce environment with one reducer per core.
func (p Params) hadoopEnv(nodes int) *mapreduce.Env {
	return mapreduce.NewEnv(p.newCluster(nodes), nodes*p.Profile.CoresPerNode)
}

// IterStats summarizes one measured CP-ALS iteration.
type IterStats struct {
	Seconds     float64            // modeled seconds (full-scale equivalent)
	Remote      float64            // remote shuffle bytes read (raw, scaled run)
	Local       float64            // local shuffle bytes read (raw, scaled run)
	Shuffles    int                // shuffle operations
	Flops       float64            // floating-point operations charged
	TimeByPhase map[string]float64 // modeled seconds per phase
	RemByPhase  map[string]float64 // remote bytes per phase
	LocByPhase  map[string]float64 // local bytes per phase
}

func statsFrom(d *cluster.Metrics) IterStats {
	return IterStats{
		Seconds:     d.TotalSimTime(),
		Remote:      d.TotalRemoteBytes(),
		Local:       d.TotalLocalBytes(),
		Shuffles:    d.TotalShuffles(),
		Flops:       d.TotalFlops(),
		TimeByPhase: d.SimTime,
		RemByPhase:  d.RemoteBytes,
		LocByPhase:  d.LocalBytes,
	}
}

// stepper abstracts the three solvers' per-mode update loop. Step's error
// is a cluster's sticky failure, which these fault-free clusters never
// record.
type stepper interface{ Step(n int) error }

// measureIterations runs `iters` full CP-ALS iterations and returns the
// per-iteration metric deltas. Iteration 0 includes any one-time setup
// already charged on the cluster (tensor load, queue initialization);
// iteration 1+ is steady state.
func measureIterations(c *cluster.Cluster, s stepper, order, iters int) []IterStats {
	out := make([]IterStats, 0, iters)
	before := c.Metrics()
	for it := 0; it < iters; it++ {
		for n := 0; n < order; n++ {
			s.Step(n)
		}
		after := c.Metrics()
		out = append(out, statsFrom(after.Sub(before)))
		before = after
	}
	return out
}

// Algo identifies one of the three evaluated systems.
type Algo string

// The three systems of the paper's evaluation.
const (
	AlgoCOO Algo = "COO"
	AlgoQ   Algo = "QCOO"
	AlgoBig Algo = "BIGtensor"
)

// runAlgo constructs the solver (charging its setup to the cluster) and
// returns per-iteration stats. The returned slice includes the first
// (setup-bearing) iteration followed by steady-state iterations.
func (p Params) runAlgo(algo Algo, nodes int, x *tensor.COO, iters int) ([]IterStats, error) {
	switch algo {
	case AlgoCOO:
		ctx := p.sparkCtx(nodes)
		s := core.NewCOOState(ctx, x, p.Rank, p.Seed)
		return measureIterations(ctx.Cluster, s, x.Order(), iters), nil
	case AlgoQ:
		ctx := p.sparkCtx(nodes)
		s := core.NewQCOOState(ctx, x, p.Rank, p.Seed)
		return measureIterations(ctx.Cluster, s, x.Order(), iters), nil
	case AlgoBig:
		env := p.hadoopEnv(nodes)
		s, err := bigtensor.New(env, x, p.Rank, p.Seed)
		if err != nil {
			return nil, err
		}
		return measureIterations(env.C, s, x.Order(), iters), nil
	}
	panic("experiments: unknown algorithm " + string(algo))
}

// generate builds the scaled dataset for a Table 5 config.
func (p Params) generate(name string) (*tensor.COO, workload.Config, error) {
	cfg, err := workload.ByName(name)
	if err != nil {
		return nil, cfg, err
	}
	return cfg.Generate(p.Scale), cfg, nil
}
