package cstf

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"

	"cstf/internal/bigtensor"
	"cstf/internal/chaos"
	"cstf/internal/ckpt"
	"cstf/internal/cluster"
	"cstf/internal/core"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/la"
	"cstf/internal/mapreduce"
	"cstf/internal/par"
	"cstf/internal/rals"
	"cstf/internal/rdd"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// Algorithm selects the CP-ALS implementation.
type Algorithm string

// The CP-ALS implementations in this repository.
const (
	// Serial is the single-machine reference implementation.
	Serial Algorithm = "serial"
	// COO is CSTF-COO (Section 4.1 of the paper): MTTKRP as a chain of
	// key-by/join stages over COO nonzeros on the Spark-like engine.
	COO Algorithm = "coo"
	// QCOO is CSTF-QCOO (Section 4.2): the queue strategy that reuses
	// factor rows between consecutive MTTKRPs, halving shuffles.
	QCOO Algorithm = "qcoo"
	// BigTensor is the paper's baseline: the GigaTensor algorithm on the
	// Hadoop-like MapReduce engine. 3rd-order tensors only.
	BigTensor Algorithm = "bigtensor"
	// Dist is the real distributed runtime (internal/dist): CP-ALS stages
	// executed by worker processes over TCP, not the simulated cluster.
	// Configure it with Options.Dist (addresses or local worker count).
	// Results are bitwise identical to Serial for every worker count.
	Dist Algorithm = "dist"
	// RALS is randomized ALS (internal/rals): leverage-score-sampled MTTKRP
	// in the style of CP-ARLS-LEV, configured with Options.RALS. Reported
	// fits are always exact; a fixed seed is bitwise-reproducible across
	// runs, Parallelism values, and dist worker counts. Runs locally by
	// default, or with its MTTKRPs on a fleet when Options.Dist names one.
	RALS Algorithm = "rals"
	// NCP is nonnegative CP (the nonnegative cpals.Rule): column-wise
	// coordinate descent with saturation skipping over the shared
	// MTTKRP/gram kernels, configured with Options.NTF. Factors come out elementwise >= 0 (the
	// natural parameterization for implicit-feedback/recommendation
	// tensors), the fit is monotone non-decreasing per sweep, and a fixed
	// seed is bitwise-reproducible across runs, Parallelism values, and dist
	// worker counts. Runs locally by default, or with its MTTKRPs on a fleet
	// when Options.Dist names one.
	NCP Algorithm = "ncp"
)

// AlgorithmInfo is one registered tier: its name, a one-line description,
// whether its MTTKRPs can or must run on a fleet (Options.Dist), and what
// builds it. An update tier (Serial, Dist, RALS, NCP) builds the
// cpals.Update that runs locally or on the fleet (no builder: the
// least-squares update); a simulated tier (COO, QCOO, BigTensor) runs on
// the modeled cluster decompose builds for it.
type AlgorithmInfo struct {
	Name      Algorithm
	Desc      string // one-line description
	Fleet     bool   // runs its MTTKRPs on a fleet when Options.Dist names one
	FleetOnly bool   // always runs on a fleet, so Options.Dist must name one

	update   func(o Options, cp *ckpt.File, opts cpals.Options, t *tensor.COO) (cpals.Update, error)
	simulate func(c *cluster.Cluster, slots int, t *tensor.COO, opts cpals.Options) (*cpals.Result, error)
}

// Algorithms is the single source of truth for the algorithm registry: one
// entry per Algorithm constant, in documentation order. Decompose, the
// "unknown algorithm" and fleet errors, and the cstf CLI's -algo help and
// -dist handling all derive from it, so a new tier cannot appear in one and
// drift from the others.
var Algorithms = []AlgorithmInfo{
	{Name: Serial, Desc: "single-machine reference CP-ALS"},
	{Name: COO, Desc: "CSTF-COO on the simulated Spark-like engine", simulate: onRDD(core.SolveCOO)},
	{Name: QCOO, Desc: "CSTF-QCOO queue strategy (default)", simulate: onRDD(core.SolveQCOO)},
	{Name: BigTensor, Desc: "GigaTensor baseline on the MapReduce engine (3rd-order only)", simulate: onMapReduce},
	{Name: Dist, Desc: "real TCP distributed runtime (Options.Dist)", Fleet: true, FleetOnly: true},
	{Name: RALS, Desc: "randomized leverage-score-sampled ALS (Options.RALS)", Fleet: true, update: ralsUpdate},
	{Name: NCP, Desc: "nonnegative CP via saturating coordinate descent (Options.NTF)", Fleet: true, update: ncpUpdate},
}

// Info returns a's registry entry; false when a is not registered.
func (a Algorithm) Info() (AlgorithmInfo, bool) {
	for _, e := range Algorithms {
		if e.Name == a {
			return e, true
		}
	}
	return AlgorithmInfo{}, false
}

// AlgorithmNames returns the registered algorithm names in order.
func AlgorithmNames() []string {
	names := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		names[i] = string(a.Name)
	}
	return names
}

// DistOptions names the fleet of the real distributed runtime and its
// knobs: the workers that run a run's MTTKRPs, always for the Dist
// algorithm and for RALS or NCP when set. The zero value launches nothing —
// set Addrs or LocalWorkers.
type DistOptions struct {
	// Addrs lists the TCP addresses of already-running cstf-worker
	// processes. The slot order is the reduction rank order; keep it fixed
	// across runs for reproducibility.
	Addrs []string

	// LocalWorkers, when Addrs is empty, launches this many local workers
	// for the duration of the run: forked cstf-worker processes when a
	// binary is found (WorkerBin, $CSTF_WORKER_BIN, next to the executable,
	// or $PATH), otherwise in-process TCP-loopback workers.
	LocalWorkers int

	// WorkerBin optionally pins the cstf-worker binary LocalWorkers forks.
	WorkerBin string

	// CSFKernel makes workers run their partial MTTKRPs with the SPLATT
	// CSF fiber-reuse kernel instead of the per-nonzero COO loop. The run
	// is then bitwise identical to the single-process CSF solver, NOT to
	// the COO-kernel Serial reference (the factored arithmetic associates
	// the same sums differently).
	CSFKernel bool

	// MinWorkers is the live-worker floor checked at every iteration
	// boundary. When the fleet drops below it (or a stage finds no live
	// target at all), the run does not fail: the coordinator computes the
	// remaining MTTKRPs itself, bitwise identical to the distributed
	// result. 0 means a floor of 1; a negative value disables degradation,
	// making fleet collapse a hard error as in earlier releases.
	MinWorkers int
}

// size is the fleet a run gets: the listed workers, else the local ones.
func (d DistOptions) size() int {
	if len(d.Addrs) > 0 {
		return len(d.Addrs)
	}
	return d.LocalWorkers
}

// RALSOptions groups the knobs of the randomized-ALS tier (the RALS
// algorithm). The zero value samples 10% of the nonzeros per mode update
// (SampleFraction 0.1), redraws every iteration, and reports an exact fit
// per iteration.
type RALSOptions struct {
	// SampleCount is the per-mode sample budget: how many weighted draws
	// each mode update's sketched MTTKRP uses. SampleFraction expresses
	// the same budget as a fraction of the nonzero count; set one or the
	// other, not both (both zero selects the 0.1-fraction default). A
	// budget >= nnz degenerates to the exact kernel — and the whole solve
	// to bitwise-exact ALS.
	SampleCount    int
	SampleFraction float64

	// ModeSampleCounts overrides the budget for individual modes; zero
	// entries defer to the global budget.
	ModeSampleCounts []int

	// ResampleEvery is the epoch length: iterations between leverage-score
	// refreshes and sample redraws. Exact fits are evaluated at epoch
	// boundaries. Default 1.
	ResampleEvery int

	// FinalFitOnly skips per-epoch exact fit evaluations, computing only
	// the final one; Tol-based convergence is then inactive.
	FinalFitOnly bool

	// ExactFinishIters makes the last k iterations run the exact kernel
	// for every mode — sampled iterations race to the neighborhood of the
	// solution, a short exact polish closes the gap to the exact fixed
	// point. 0 disables.
	ExactFinishIters int
}

// NTFOptions groups the knobs of the nonnegative-CP tier (the NCP
// algorithm). The zero value runs three coordinate-descent passes per row
// problem.
type NTFOptions struct {
	// InnerIters is the number of coordinate-descent passes each mode
	// update runs over every row problem. The first pass checks every
	// element and flags the saturated (pinned-at-zero) ones; later passes
	// skip them. 0 selects the default (3); a negative count is an error.
	InnerIters int
}

// FaultOptions groups fault injection and checkpointing.
type FaultOptions struct {
	// Chaos, when non-nil, injects a deterministic fault schedule: for the
	// simulated algorithms, node crashes / disk failures / stragglers /
	// network degradation against the cost model; for a run on a fleet
	// (Options.Dist), REAL faults at stage boundaries — worker kills,
	// network partitions, frame corruption, torn checkpoint writes (fault
	// kinds with no physical analogue are ignored). A run with neither
	// rejects it.
	Chaos *ChaosSpec

	// CheckpointEvery, with CheckpointPath, writes an iteration-granular
	// checkpoint of the factor matrices after every CheckpointEvery-th
	// completed ALS iteration. Simulated distributed runs charge the
	// replicated HDFS write to the "Checkpoint" phase. DecomposeResume
	// restarts from the file.
	CheckpointEvery int
	CheckpointPath  string
}

// Options configures Decompose. Zero values select the documented
// defaults:
//
//	Field               Zero-value default
//	---------------------------------------------------------------------
//	Algorithm           QCOO
//	Rank                8
//	MaxIters            25
//	Tol                 1e-5
//	NoConvergenceCheck  false (the Tol test runs)
//	Parallelism         runtime.GOMAXPROCS(0)
//	Seed                0 (still fully deterministic)
//	Nodes               4 simulated nodes
//	WorkScale           1
//	OnIteration         nil (no progress callback)
//	Profile             cluster.CometProfile()
//	TracePath           "" (no trace written)
type Options struct {
	Algorithm Algorithm // default QCOO
	Rank      int       // decomposition rank R; default 8
	MaxIters  int       // maximum ALS iterations; default 25

	// Tol is the fit-improvement stopping tolerance; iteration stops once
	// |fit(k) - fit(k-1)| < Tol. The zero value keeps the 1e-5 default.
	// To run exactly MaxIters iterations set NoConvergenceCheck instead.
	Tol float64

	// NoConvergenceCheck disables the Tol test entirely, so exactly
	// MaxIters iterations run.
	NoConvergenceCheck bool

	// Parallelism is the number of worker goroutines the shared-memory
	// numeric kernels (serial MTTKRP, gram matrices, normalization, fit
	// reductions) fan out to, and the concurrency of DecomposeBest
	// restarts. <= 0 selects runtime.GOMAXPROCS(0). Factors are bitwise
	// identical for every value — partitioning is row-aligned and
	// reductions merge in a fixed block order.
	Parallelism int

	Seed      uint64  // deterministic initialization seed
	Nodes     int     // simulated worker nodes for distributed algorithms; default 4
	WorkScale float64 // cost-model multiplier when t is a 1/s-scale stand-in; default 1

	// OnIteration, when non-nil, is called after every completed ALS
	// iteration with the 0-based iteration number and the model fit;
	// returning true stops the run early, keeping the factors computed so
	// far. Honored by every algorithm: RALS calls it only at the iterations
	// that record an exact fit (epoch ends), and BigTensor reports fit 0.
	OnIteration func(iter int, fit float64) (stop bool)

	// Profile overrides the cluster cost profile (default: CometProfile).
	Profile *cluster.Profile

	// TracePath, when set for a distributed algorithm, writes a Chrome
	// trace-event JSON (chrome://tracing, Perfetto) of the modeled
	// execution timeline to this file.
	TracePath string

	// Dist names the fleet of the real distributed runtime: the workers
	// that run the MTTKRPs of Algorithm Dist, and of RALS or NCP when set.
	// An algorithm that cannot run on a fleet rejects a non-empty one.
	Dist DistOptions

	// RALS configures the randomized-ALS tier (Algorithm RALS).
	RALS RALSOptions

	// NTF configures the nonnegative-CP tier (Algorithm NCP).
	NTF NTFOptions

	// Faults configures fault injection and checkpointing.
	Faults FaultOptions
}

// ChaosSpec configures deterministic fault injection. Events are scheduled
// by a pure function of (Seed, event index) against the cluster's stage
// clock, so a given spec replays bitwise-identically across runs and host
// parallelism. Zero-valued fields keep the documented defaults.
type ChaosSpec struct {
	Seed uint64 // fault-schedule seed (independent of Options.Seed)
	// HorizonStages is the number of stages the events are spread over;
	// default 100. On a fleet a stage is one MTTKRP round, so an iteration
	// over an order-N tensor is N stages; the simulated engines count their
	// own RDD or MapReduce stages.
	HorizonStages uint64

	NodeCrashes  int // executors lost (cache dropped, recovery charged)
	DiskFailures int // HDFS block losses (executor survives)

	// Real-runtime fault kinds (runs on a fleet; ignored by the simulated
	// algorithms, which have no sockets or checkpoint files to damage).
	NetPartitions int // worker connections severed; the process survives and rejoins
	FrameCorrupts int // one-shot bit flips on a coordinator->worker frame (CRC-caught)
	TornWrites    int // checkpoint files damaged right after being written

	Stragglers      int     // slow-node windows
	StragglerFactor float64 // compute slowdown of a straggling node; default 4
	StragglerStages uint64  // window length in stages; default Horizon/4+1

	NetDrops  int     // degraded-network windows
	NetFactor float64 // bandwidth multiplier while degraded; default 0.5
	NetStages uint64  // window length in stages; default Horizon/4+1

	// Speculation, when > 0, enables speculative execution for nodes whose
	// slowdown is at least this threshold (Spark's spark.speculation).
	Speculation float64
}

// withDefaults applies the documented zero-value defaults. Every Decompose
// entry point goes through it.
func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = QCOO
	}
	if o.Rank == 0 {
		o.Rank = 8
	}
	if o.MaxIters == 0 {
		o.MaxIters = 25
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.NoConvergenceCheck {
		o.Tol = 0
	}
	if o.Parallelism <= 0 {
		o.Parallelism = par.Workers(0)
	}
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.WorkScale == 0 {
		o.WorkScale = 1
	}
	return o
}

// Matrix is a read-only dense matrix view (factor matrices).
type Matrix struct {
	d *la.Dense
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.d.Rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.d.Cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.d.At(i, j) }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 { return la.VecClone(m.d.Row(i)) }

// Metrics reports the cost of a distributed run. It mixes two kinds of
// numbers that must never be conflated: the Sim*/␣*Bytes/Flops group is
// MODELED by the simulated cluster (internal/cluster) and is zero for a run
// on a fleet, while the Wall/Wire/Worker group is MEASURED — real elapsed
// time and real bytes on TCP sockets — and is zero for the simulated
// algorithms.
type Metrics struct {
	// Simulated-cluster cost model (COO, QCOO, BigTensor). These are
	// predictions from the cost profile, not measurements.
	SimSeconds    float64 // modeled wall-clock of the whole run
	RemoteBytes   float64 // modeled shuffle bytes read from remote nodes
	LocalBytes    float64 // modeled shuffle bytes read locally
	Shuffles      int     // shuffle operations
	Flops         float64 // floating-point operations charged
	HadoopJobs    int     // MapReduce jobs launched (BigTensor only)
	SecondsByMode map[string]float64

	// Real measurements from the Dist runtime: actual wall clock and
	// actual bytes moved over worker sockets.
	WallSeconds       float64 // measured elapsed time of the run
	WireBytesSent     int64   // bytes written to worker TCP connections
	WireBytesRecv     int64   // bytes read from worker TCP connections
	WireShardBytes    int64   // payload bytes of tensor shards shipped
	WireFactorBytes   int64   // payload bytes of factor state shipped (full + delta)
	WireDeltaFrames   int     // factor-delta frames sent
	FactorResyncs     int     // full-factor resyncs forced by task reassignment
	DistWorkers       int     // worker processes the session started with
	WorkerDeaths      int     // real workers lost (timeout, socket error, kill)
	TaskReassignments int     // tasks re-dispatched after a worker death
	ShardResends      int     // tensor shards re-shipped to substitute workers
	WorkerRejoins     int     // disconnected workers re-admitted after redial
	CorruptFrames     int     // checksum-failed frames the coordinator rejected
	DistDegraded      bool    // fleet collapsed; run finished coordinator-local
	// DistPhases splits WallSeconds by what the Dist coordinator was doing,
	// in order of first occurrence: connect, partition, shard-ship and
	// factor-init precede the first MTTKRP; mttkrp-wait (the remote MTTKRP
	// stages), factor-update (factor broadcasts), local (the coordinator's
	// rule, normalize, gram and fit between remote stages) and other (after
	// the last one) are totals over the iterations. They sum to
	// WallSeconds.
	DistPhases []PhaseSeconds

	// Fault-tolerance counters, nonzero only when Chaos or task-failure
	// injection was active.
	NodeCrashes          int     // node-crash faults delivered
	DiskFailures         int     // disk-failure faults delivered
	TaskFailures         int     // task attempts that failed and were retried
	StageRetries         int     // full-stage re-executions
	StragglerStages      int     // stages run with a straggling node
	SpeculativeTasks     int     // tasks rescued by speculative execution
	RecomputedPartitions int     // RDD partitions rebuilt from lineage
	LostCacheBytes       float64 // cached bytes destroyed by crashes
	ReReplicatedBytes    float64 // HDFS bytes copied to restore replication
	RecoverySeconds      float64 // modeled time spent in recovery work
	CheckpointSeconds    float64 // modeled time spent writing checkpoints
}

// add accumulates o into m: every count, byte total and second sums —
// field by field through reflection, so no field can be left out — except
// that DistWorkers keeps the largest fleet and DistDegraded is set if
// either run degraded; phases sum by name (DistPhases by position, in
// order of first occurrence).
func (m *Metrics) add(o Metrics) {
	workers := max(m.DistWorkers, o.DistWorkers)
	dst, src := reflect.ValueOf(m).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		switch f, g := dst.Field(i), src.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + g.Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + g.Float())
		case reflect.Bool:
			f.SetBool(f.Bool() || g.Bool())
		}
	}
	m.DistWorkers = workers
	for phase, s := range o.SecondsByMode {
		if m.SecondsByMode == nil {
			m.SecondsByMode = map[string]float64{}
		}
		m.SecondsByMode[phase] += s
	}
	for i, p := range o.DistPhases {
		if i == len(m.DistPhases) {
			m.DistPhases = append(m.DistPhases, PhaseSeconds{Name: p.Name})
		}
		m.DistPhases[i].Seconds += p.Seconds
	}
}

// PhaseSeconds is one named share of a measured wall clock.
type PhaseSeconds struct {
	Name    string
	Seconds float64
}

// Decomposition is a computed CP model [lambda; A_1 ... A_N].
type Decomposition struct {
	Lambda  []float64 // component weights, length R
	Factors []*Matrix // one per mode, column-normalized
	Fits    []float64 // fit after each iteration (empty for BigTensor)
	Iters   int
	Metrics Metrics // zero for the serial algorithm; summed over restarts for DecomposeBest

	// Restart and Seed identify which initialization produced this
	// result: Restart is the 0-based restart index (always 0 for plain
	// Decompose) and Seed the derived initialization seed actually used.
	Restart int
	Seed    uint64
}

// Fit returns the final model fit in [0, 1] (1 is exact).
func (d *Decomposition) Fit() float64 {
	if len(d.Fits) == 0 {
		return 0
	}
	return d.Fits[len(d.Fits)-1]
}

// Rank returns the decomposition rank.
func (d *Decomposition) Rank() int { return len(d.Lambda) }

// At evaluates the model at one coordinate:
// sum_r lambda_r prod_n A_n(idx_n, r).
func (d *Decomposition) At(idx ...int) float64 {
	if len(idx) != len(d.Factors) {
		panic("cstf: coordinate order mismatch")
	}
	var s float64
	for r := range d.Lambda {
		p := d.Lambda[r]
		for n, i := range idx {
			p *= d.Factors[n].At(i, r)
		}
		s += p
	}
	return s
}

// Component describes one index's weight within a factor column.
type Component struct {
	Index  int
	Weight float64
}

// TopK returns the k indices of `mode` with the largest absolute loading
// in component r — the standard way to read a CP factor ("top nouns of
// concept 3").
func (d *Decomposition) TopK(mode, r, k int) []Component {
	f := d.Factors[mode]
	out := make([]Component, 0, f.Rows())
	for i := 0; i < f.Rows(); i++ {
		out = append(out, Component{Index: i, Weight: f.At(i, r)})
	}
	sort.Slice(out, func(a, b int) bool { return math.Abs(out[a].Weight) > math.Abs(out[b].Weight) })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Decompose runs CP-ALS on t with the selected algorithm. It is
// DecomposeContext with a background context.
func Decompose(t *Tensor, o Options) (*Decomposition, error) {
	return DecomposeContext(context.Background(), t, o)
}

// DecomposeContext runs CP-ALS on t with the selected algorithm, checking
// ctx for cancellation between ALS iterations: a cancelled context aborts
// the run and returns ctx's error. Every algorithm honors it.
func DecomposeContext(ctx context.Context, t *Tensor, o Options) (*Decomposition, error) {
	return decompose(ctx, t, o.withDefaults(), &ckpt.File{})
}

// decompose runs one solve from the checkpoint cp: a validated file on
// DecomposeResume, the zero File (iteration 0, no state) on a fresh run.
func decompose(ctx context.Context, t *Tensor, o Options, cp *ckpt.File) (*Decomposition, error) {
	a, ok := o.Algorithm.Info()
	if !ok {
		return nil, fmt.Errorf("cstf: unknown algorithm %q (known: %s)", o.Algorithm, strings.Join(AlgorithmNames(), ", "))
	}
	fleet := a.FleetOnly || a.Fleet && o.Dist.size() > 0
	if !a.Fleet && o.Dist.size() > 0 {
		var names []string
		for _, e := range Algorithms {
			if e.Fleet {
				names = append(names, string(e.Name))
			}
		}
		return nil, fmt.Errorf("cstf: the %s algorithm cannot run on a fleet; Options.Dist is for %s", o.Algorithm, strings.Join(names, ", "))
	}
	opts := cpals.Options{
		Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed,
		Parallelism: o.Parallelism, Ctx: ctx, OnIteration: o.OnIteration,
	}
	opts.Restore(cp)
	if o.Faults.CheckpointEvery > 0 && o.Faults.CheckpointPath != "" {
		// Workers records the fleet size behind the snapshot: informational,
		// since a resume is bitwise on any fleet size or none.
		alg, workers, path := string(o.Algorithm), 0, o.Faults.CheckpointPath
		if fleet {
			workers = o.Dist.size()
		}
		opts.CheckpointEvery = o.Faults.CheckpointEvery
		opts.OnCheckpoint = func(snap *ckpt.File) error {
			snap.Algorithm, snap.Workers = alg, workers
			return ckpt.Write(path, snap)
		}
	}

	var res *cpals.Result
	var err error
	var c *cluster.Cluster
	var distStats *dist.Stats
	if a.simulate != nil {
		profile := cluster.CometProfile()
		if o.Profile != nil {
			profile = *o.Profile
		}
		c = cluster.New(o.Nodes, profile)
		c.SetWorkScale(o.WorkScale)
		if o.TracePath != "" {
			c.EnableTrace()
		}
		if o.Faults.Chaos != nil {
			c.SetFaultInjector(chaosPlan(o.Faults.Chaos, o.Nodes))
			if o.Faults.Chaos.Speculation > 0 {
				c.EnableSpeculation(o.Faults.Chaos.Speculation)
			}
		}
		res, err = a.simulate(c, o.Nodes*profile.CoresPerNode, t.coo, opts)
	} else {
		// One mode update: the rule, sampler and checkpointed state of the
		// algorithm, its MTTKRPs run locally or on the fleet.
		var u cpals.Update
		if err = opts.Validate(t.coo); err == nil && a.update != nil {
			u, err = a.update(o, cp, opts, t.coo)
		}
		switch {
		case err != nil:
		case fleet:
			res, distStats, err = onFleet(t, o, opts, u)
		case o.Faults.Chaos != nil:
			err = fmt.Errorf("cstf: chaos injection requires a distributed algorithm or a fleet")
		default:
			res, err = cpals.SolveWith(t.coo, opts, u)
		}
	}
	if err != nil {
		return nil, err
	}

	out := &Decomposition{
		Lambda: res.Lambda,
		Fits:   res.Fits,
		Iters:  res.Iters,
		Seed:   o.Seed,
	}
	for _, f := range res.Factors {
		out.Factors = append(out.Factors, &Matrix{d: f})
	}
	if c != nil && o.TracePath != "" {
		f, err := os.Create(o.TracePath)
		if err != nil {
			return nil, err
		}
		if err := cluster.WriteChromeTrace(f, c.Trace()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if distStats != nil {
		out.Metrics = Metrics{
			WallSeconds:       distStats.WallSeconds,
			WireBytesSent:     distStats.BytesSent,
			WireBytesRecv:     distStats.BytesRecv,
			WireShardBytes:    distStats.ShardBytes,
			WireFactorBytes:   distStats.FactorBytes,
			WireDeltaFrames:   distStats.DeltaFrames,
			FactorResyncs:     distStats.Resyncs,
			DistWorkers:       distStats.Workers,
			WorkerDeaths:      distStats.WorkerDeaths,
			TaskReassignments: distStats.Reassignments,
			ShardResends:      distStats.ShardResends,
			WorkerRejoins:     distStats.Rejoins,
			CorruptFrames:     distStats.CorruptFrames,
			DistDegraded:      distStats.Degraded,
		}
		for _, p := range distStats.Phases.List() {
			out.Metrics.DistPhases = append(out.Metrics.DistPhases, PhaseSeconds(p))
		}
	}
	if c != nil {
		m := c.Metrics()
		out.Metrics = Metrics{
			SimSeconds:    c.SimTime(),
			RemoteBytes:   m.TotalRemoteBytes(),
			LocalBytes:    m.TotalLocalBytes(),
			Shuffles:      m.TotalShuffles(),
			Flops:         m.TotalFlops(),
			HadoopJobs:    m.Jobs,
			SecondsByMode: m.SimTime,

			NodeCrashes:          m.NodeCrashes,
			DiskFailures:         m.DiskFailures,
			TaskFailures:         m.TaskFailures,
			StageRetries:         m.StageRetries,
			StragglerStages:      m.StragglerStages,
			SpeculativeTasks:     m.SpeculativeTasks,
			RecomputedPartitions: m.RecomputedPartitions,
			LostCacheBytes:       m.LostCacheBytes,
			ReReplicatedBytes:    m.ReReplicatedBytes,
			RecoverySeconds:      m.SimTime[cluster.PhaseRecovery],
			CheckpointSeconds:    m.SimTime[cluster.PhaseCheckpoint],
		}
	}
	return out, nil
}

// ralsUpdate builds the RALS tier's sampled update, resuming the sampler
// from cp. With no budget set it samples 10% of the nonzeros.
func ralsUpdate(o Options, cp *ckpt.File, opts cpals.Options, t *tensor.COO) (cpals.Update, error) {
	r := o.RALS
	if r.SampleCount == 0 && r.SampleFraction == 0 && len(r.ModeSampleCounts) == 0 {
		r.SampleFraction = 0.1
	}
	ro := rals.Options{Options: opts, SampleCount: r.SampleCount, SampleFraction: r.SampleFraction,
		ModeSampleCounts: r.ModeSampleCounts, ResampleEvery: r.ResampleEvery, FinalFitOnly: r.FinalFitOnly,
		ExactFinishIters: r.ExactFinishIters, InitState: cp.RALS}
	return ro.Update(t)
}

// ncpUpdate builds the NCP tier's update: the nonnegative rule with
// NTF.InnerIters coordinate-descent passes (0: three) or, on a resume, the
// pass count the checkpointed run used, so it follows the same trajectory.
func ncpUpdate(o Options, cp *ckpt.File, opts cpals.Options, t *tensor.COO) (cpals.Update, error) {
	inner := o.NTF.InnerIters
	switch {
	case inner < 0:
		return cpals.Update{}, fmt.Errorf("cstf: NTF.InnerIters must be non-negative, got %d", inner)
	case cp.NTF != nil && opts.InitFactors == nil:
		return cpals.Update{}, fmt.Errorf("cstf: the checkpoint's ncp state requires its factors")
	case cp.NTF != nil:
		inner = cp.NTF.InnerIters
	case opts.StartIter > 0:
		return cpals.Update{}, fmt.Errorf("cstf: resuming ncp at iteration %d needs the checkpoint's inner pass count", opts.StartIter)
	case inner == 0:
		inner = 3
	}
	return cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: inner}}, nil
}

// onRDD runs a CSTF solver on the Spark-like engine over the cluster's
// slots, with lineage recovery.
func onRDD(solve func(*rdd.Context, *tensor.COO, cpals.Options) (*cpals.Result, error)) func(*cluster.Cluster, int, *tensor.COO, cpals.Options) (*cpals.Result, error) {
	return func(c *cluster.Cluster, slots int, t *tensor.COO, opts cpals.Options) (*cpals.Result, error) {
		rctx := rdd.NewContext(c, slots)
		rctx.EnableRecovery()
		return solve(rctx, t, opts)
	}
}

// onMapReduce runs BigTensor on the Hadoop-like engine over the cluster's
// slots, with task recovery.
func onMapReduce(c *cluster.Cluster, slots int, t *tensor.COO, opts cpals.Options) (*cpals.Result, error) {
	env := mapreduce.NewEnv(c, slots)
	env.EnableRecovery()
	return bigtensor.Solve(env, t, opts)
}

// onFleet runs the mode update u with its MTTKRPs on the workers
// Options.Dist names: Dist.Addrs, or locally launched ones (forked
// cstf-worker processes when a binary is available, in-process loopback
// workers otherwise), closed when the solve returns. A ChaosSpec schedules
// REAL faults against the session's stage clock: worker kills, network
// partitions (severed connections the worker survives and rejoins from),
// frame corruption (CRC-caught bit flips), and torn checkpoint writes.
// Fault kinds with no physical analogue here (stragglers, disk failures,
// network degradation) are ignored.
func onFleet(t *Tensor, o Options, opts cpals.Options, u cpals.Update) (*cpals.Result, *dist.Stats, error) {
	cfg := dist.Config{Addrs: o.Dist.Addrs}
	if len(o.Dist.Addrs) == 0 {
		if o.Dist.LocalWorkers <= 0 {
			return nil, nil, fmt.Errorf("cstf: the %s algorithm needs Dist.Addrs or Dist.LocalWorkers", o.Algorithm)
		}
		lc, err := dist.LaunchLocal(o.Dist.LocalWorkers, o.Dist.WorkerBin)
		if err != nil {
			return nil, nil, err
		}
		defer lc.Close()
		cfg = lc.Config()
	}
	cfg.MinWorkers = o.Dist.MinWorkers
	cfg.UseCSF = o.Dist.CSFKernel
	if o.Faults.Chaos != nil {
		cfg.Plan = chaosPlan(o.Faults.Chaos, o.Dist.size())
		if o.Faults.Chaos.TornWrites > 0 && o.Faults.CheckpointPath != "" {
			// A TornWrite event damages the just-written checkpoint file in
			// place — the on-disk state a crash mid-write would leave. The
			// ckpt checksum must surface it as a CorruptError on resume,
			// never as silently wrong factors.
			path := o.Faults.CheckpointPath
			cfg.OnTornWrite = func(int) { tearFile(path) }
		}
	}
	res, stats, err := dist.Solve(t.coo, opts, u, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, &stats, nil
}

// tearFile truncates a file to half its size — the torn tail a crash
// mid-write leaves when the writer lacks (or hasn't reached) the atomic
// rename. Used only by chaos TornWrite injection.
func tearFile(path string) {
	st, err := os.Stat(path)
	if err != nil {
		return
	}
	os.Truncate(path, st.Size()/2)
}

// chaosPlan translates the public spec into the internal fault plan.
func chaosPlan(cs *ChaosSpec, nodes int) *chaos.FaultPlan {
	return chaos.NewPlan(cs.Seed, chaos.Spec{
		Nodes:           nodes,
		Horizon:         cs.HorizonStages,
		Crashes:         cs.NodeCrashes,
		DiskFailures:    cs.DiskFailures,
		NetPartitions:   cs.NetPartitions,
		FrameCorrupts:   cs.FrameCorrupts,
		TornWrites:      cs.TornWrites,
		Stragglers:      cs.Stragglers,
		StragglerFactor: cs.StragglerFactor,
		StragglerStages: cs.StragglerStages,
		NetDrops:        cs.NetDrops,
		NetFactor:       cs.NetFactor,
		NetStages:       cs.NetStages,
	})
}

// DecomposeBest runs Decompose `restarts` times with initialization seeds
// derived from o.Seed and returns the result with the highest fit — the
// standard remedy for CP-ALS's sensitivity to its starting point. Every
// algorithm reports the final fit the restarts are ranked by. It is
// DecomposeBestContext with a background context.
func DecomposeBest(t *Tensor, o Options, restarts int) (*Decomposition, error) {
	return DecomposeBestContext(context.Background(), t, o, restarts)
}

// DecomposeBestContext is DecomposeBest with cancellation. The restarts run
// CONCURRENTLY, up to o.Parallelism at a time; each restart's result
// depends only on its derived seed, so the outcome is identical to the
// sequential loop. The winner — highest fit, ties broken by the lowest
// restart index — carries its restart index and seed in
// Decomposition.Restart/Seed, and for distributed algorithms its Metrics
// are replaced by the SUM of the simulated cost over all restarts (the
// cluster ran every restart, not just the winner).
func DecomposeBestContext(ctx context.Context, t *Tensor, o Options, restarts int) (*Decomposition, error) {
	if restarts <= 0 {
		return nil, fmt.Errorf("cstf: restarts must be positive, got %d", restarts)
	}
	o = o.withDefaults()
	decs := make([]*Decomposition, restarts)
	errs := make([]error, restarts)
	par.Run(o.Parallelism, restarts, func(r int) {
		or := o
		or.Seed = RestartSeed(o.Seed, r)
		dec, err := DecomposeContext(ctx, t, or)
		if err != nil {
			errs[r] = err
			return
		}
		dec.Restart = r
		decs[r] = dec
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	best := decs[0]
	var total Metrics
	for _, dec := range decs {
		if dec.Fit() > best.Fit() {
			best = dec
		}
		total.add(dec.Metrics)
	}
	best.Metrics = total
	return best, nil
}

// RestartSeed returns the initialization seed DecomposeBest derives for
// restart r of a run whose Options.Seed is base. Exposed so callers can
// reproduce a winning restart with plain Decompose.
func RestartSeed(base uint64, r int) uint64 { return rng.Hash64(base, uint64(r)) }

// EstimateRank fits ranks 1..maxRank serially and reports each rank's fit
// and CORCONDIA core consistency, plus the recommended rank (the largest
// whose consistency stays above `threshold`; 80 is a conservative choice).
// Orders up to 4.
func EstimateRank(t *Tensor, maxRank int, threshold float64, seed uint64) ([]RankEstimate, int, error) {
	ests, best, err := cpals.EstimateRank(t.coo, maxRank,
		cpals.Options{MaxIters: 50, Tol: 1e-8, Seed: seed}, threshold)
	if err != nil {
		return nil, 0, err
	}
	out := make([]RankEstimate, len(ests))
	for i, e := range ests {
		out[i] = RankEstimate{Rank: e.Rank, Fit: e.Fit, CoreConsistency: e.CoreConsistency}
	}
	return out, best, nil
}

// RankEstimate is one candidate rank's diagnostics from EstimateRank.
type RankEstimate struct {
	Rank            int
	Fit             float64
	CoreConsistency float64
}
