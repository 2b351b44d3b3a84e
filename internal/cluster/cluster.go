package cluster

import (
	"fmt"
	"sync"

	"cstf/internal/par"
	"cstf/internal/rng"
)

// Task describes the modeled cost of one task of a stage: where it runs and
// how much compute, shuffle I/O, and disk I/O it performs. The engines
// (internal/rdd, internal/mapreduce) build tasks; user code never does.
type Task struct {
	Node        int     // node the task executes on
	Flops       float64 // floating-point operations
	Records     float64 // records touched (per-record engine overhead)
	RemoteBytes float64 // shuffle bytes fetched from other nodes
	LocalBytes  float64 // shuffle bytes read from this node
	DiskBytes   float64 // HDFS bytes read or written
}

// Cluster is a simulated cluster of Nodes identical workers plus a driver.
// It executes real work on the host via Parallel and accounts modeled time
// and traffic via RunStage. A Cluster is safe for concurrent metric updates
// but stages themselves are issued sequentially by the engines, matching
// the synchronous stage execution of Spark jobs and Hadoop phases.
type Cluster struct {
	Nodes   int
	Profile Profile

	mu          sync.Mutex
	metrics     *Metrics
	phase       string
	cachedBytes []float64 // per node, currently persisted partition bytes
	simTime     float64
	workScale   float64 // variable-cost multiplier (see SetWorkScale)
	failRate    float64 // per-task failure probability (failure injection)
	failSeed    uint64
	stageSeq    uint64 // stage counter for deterministic failure draws
	tracing     bool
	trace       []TraceEvent

	injector      FaultInjector // scheduled faults (see fault.go), may be nil
	inFault       bool          // suppress fault delivery during recovery stages
	specThreshold float64       // speculative execution threshold (0 = off)
	crashFns      []func(node int)
	diskFns       []func(node int)
	abortErr      error // sticky job-abort error (*StageFailure, *DataLoss)
}

// New creates a simulated cluster with the given worker-node count.
func New(nodes int, p Profile) *Cluster {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", nodes))
	}
	if p.CoresPerNode <= 0 {
		panic("cluster: profile needs at least one core per node")
	}
	c := &Cluster{
		Nodes:       nodes,
		Profile:     p,
		metrics:     newMetrics(),
		phase:       "Other",
		cachedBytes: make([]float64, nodes),
		workScale:   1,
	}
	return c
}

// SetWorkScale declares that the workload being executed is a 1/s-scale
// stand-in for the real one: all data-dependent costs (flops, records,
// bytes, cached memory) are multiplied by s when converting to modeled
// time, while fixed costs (stage scheduling latency, Hadoop job startup)
// stay as-is. Running a 1/1000-scale tensor with SetWorkScale(1000)
// therefore yields full-scale-equivalent runtimes with the correct
// fixed-vs-variable cost mix. Metrics (bytes, flops, records) remain RAW
// measured values of the scaled run; report-time extrapolation is the
// caller's choice.
func (c *Cluster) SetWorkScale(s float64) {
	if s <= 0 {
		panic("cluster: work scale must be positive")
	}
	c.mu.Lock()
	c.workScale = s
	c.mu.Unlock()
}

// NodeOf maps a partition index to the node hosting it (round-robin, the
// default Spark/Hadoop placement for evenly sized partition sets).
func (c *Cluster) NodeOf(partition int) int {
	if partition < 0 {
		panic("cluster: negative partition")
	}
	return partition % c.Nodes
}

// SetPhase labels all subsequent accounting (e.g. "MTTKRP-2"). Figure 4's
// per-mode breakdown is produced by switching phases around each MTTKRP.
func (c *Cluster) SetPhase(name string) {
	c.mu.Lock()
	c.phase = name
	c.mu.Unlock()
}

// Phase returns the current accounting label.
func (c *Cluster) Phase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// Metrics returns a snapshot of the accumulated metrics.
func (c *Cluster) Metrics() *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics.Clone()
}

// SimTime returns the modeled seconds elapsed so far.
func (c *Cluster) SimTime() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simTime
}

// ResetMetrics zeroes the metrics and the simulated clock (cache occupancy
// is preserved: persisted RDDs survive a measurement-window reset).
func (c *Cluster) ResetMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = newMetrics()
	c.simTime = 0
}

// AddCached charges wire bytes of raw-cached data on the node hosting the
// given partition; Unpersist is AddCached with a negative size. The
// profile's RawCacheFactor converts wire size to deserialized JVM object
// size, and the result feeds the GC-pressure term of the cost model.
func (c *Cluster) AddCached(partition int, bytes float64) {
	f := c.Profile.RawCacheFactor
	if f <= 0 {
		f = 1
	}
	c.addCachedEffective(partition, bytes*f)
}

// AddCachedSerialized charges bytes cached at the serialized storage level:
// the footprint is the wire size itself (no object expansion), trading
// memory for per-read decode cost (Profile.DeserFactor).
func (c *Cluster) AddCachedSerialized(partition int, bytes float64) {
	c.addCachedEffective(partition, bytes)
}

func (c *Cluster) addCachedEffective(partition int, bytes float64) {
	n := c.NodeOf(partition)
	c.mu.Lock()
	c.cachedBytes[n] += bytes
	if c.cachedBytes[n] < 0 {
		c.cachedBytes[n] = 0
	}
	c.mu.Unlock()
}

// CachedBytes returns the total bytes currently persisted across the cluster.
func (c *Cluster) CachedBytes() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s float64
	for _, v := range c.cachedBytes {
		s += v
	}
	return s
}

// RunStage charges the modeled execution of one stage consisting of the
// given tasks. wide marks a stage that begins with a shuffle read: it pays
// driver scheduling latency and increments the shuffle counter. The model:
//
//	gc(n)     = 1 + GCCoeff * cached(n) / NodeMemory
//	busy(n)   = (flops/CoreFlops + records*RecordCost) / Cores * gc(n)
//	          + remote/NetBandwidth + local/LocalBW + disk/DiskBW
//	          + TaskOverhead * ceil(tasks(n)/Cores)
//	stageTime = max_n busy(n) + [wide] (SchedBase + SchedPerNode*Nodes)
//
// Fault handling: scheduled faults (SetFaultInjector) are delivered at the
// stage boundary before accounting begins; per-node slowdowns and network
// degradation from the injector apply to the stage's busy times; and if a
// task exhausts its retry budget the whole stage is re-executed up to
// maxStageAttempts times (each failed attempt paying its cost plus
// Profile.StageRetryBackoff) before the job aborts with a *StageFailure.
func (c *Cluster) RunStage(wide bool, tasks []Task) {
	c.deliverFaults()
	p := c.Profile
	acc := make([]nodeAcc, c.Nodes)
	var flopsTot, recTot, remoteTot, localTot, diskTot float64
	for _, t := range tasks {
		if t.Node < 0 || t.Node >= c.Nodes {
			panic(fmt.Sprintf("cluster: task on node %d of %d", t.Node, c.Nodes))
		}
		a := &acc[t.Node]
		a.flops += t.Flops
		a.records += t.Records
		a.remote += t.RemoteBytes
		a.local += t.LocalBytes
		a.disk += t.DiskBytes
		a.tasks++
		flopsTot += t.Flops
		recTot += t.Records
		remoteTot += t.RemoteBytes
		localTot += t.LocalBytes
		diskTot += t.DiskBytes
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stageSeq++

	slow, netFactor := []float64(nil), 1.0
	if c.injector != nil {
		slow, netFactor = c.injector.StageConditions(c.stageSeq, c.Nodes)
		if netFactor <= 0 || netFactor > 1 {
			netFactor = 1
		}
		anySlow := false
		for _, s := range slow {
			if s > 1 {
				anySlow = true
				break
			}
		}
		if anySlow {
			c.metrics.StragglerStages++
			c.recordTrace("straggler", false, c.simTime, 0, len(tasks), 0, 0, 0)
		}
		if netFactor < 1 {
			c.recordTrace("net-degraded", false, c.simTime, 0, len(tasks), 0, 0, 0)
		}
	}

	var busy float64
	for sa := 0; sa < maxStageAttempts; sa++ {
		b, dead := c.runAttempt(sa, wide, tasks, acc, slow, netFactor)
		busy = b
		if !dead {
			break
		}
		c.metrics.StageRetries++
		if sa == maxStageAttempts-1 {
			// Out of stage attempts: the job aborts. The final attempt is
			// still charged below so the clock and trace stay consistent.
			if c.abortErr == nil {
				c.abortErr = &StageFailure{Stage: c.stageSeq, Phase: c.phase, Wide: wide}
			}
			break
		}
		d := b + p.StageRetryBackoff
		c.recordTrace("stage-retry", wide, c.simTime, d, len(tasks), 0, 0, 0)
		c.simTime += d
		c.metrics.SimTime[c.phase] += d
	}

	t := busy
	if wide {
		t += p.SchedBase + p.SchedPerNode*float64(c.Nodes)
		c.metrics.Shuffles[c.phase]++
	}
	c.recordTrace("stage", wide, c.simTime, t, len(tasks), recTot, remoteTot, localTot)
	c.simTime += t
	ph := c.phase
	c.metrics.SimTime[ph] += t
	c.metrics.RemoteBytes[ph] += remoteTot
	c.metrics.LocalBytes[ph] += localTot
	c.metrics.Flops[ph] += flopsTot
	c.metrics.Records[ph] += recTot
	c.metrics.DiskBytes[ph] += diskTot
	c.metrics.Stages++
	c.metrics.Tasks += len(tasks)
}

type nodeAcc struct {
	flops, records, remote, local, disk float64
	tasks                               int
}

// runAttempt prices one execution attempt of a stage: deterministic task
// retries (attempt sa uses rng keys sa*attemptStride+0..maxTaskRetries, so
// attempt 0 reproduces the historical draw sequence), injector slowdowns,
// network degradation, and speculative backups on straggling nodes. It
// returns the attempt's wall time and whether some task exhausted its retry
// cap, which forces a full stage re-execution. Caller holds c.mu.
func (c *Cluster) runAttempt(sa int, wide bool, tasks []Task, acc []nodeAcc, slow []float64, netFactor float64) (float64, bool) {
	p := c.Profile
	var ext []nodeAcc // retry surcharge per node
	deadTask := false
	if c.failRate > 0 {
		ext = make([]nodeAcc, c.Nodes)
		// Attempt a of task t fails while U(seed, stage, t, key(a)) < rate;
		// each failed attempt re-pays the task's cost, and a task that fails
		// maxTaskRetries+1 times in a row kills this stage attempt.
		for ti := range tasks {
			t := &tasks[ti]
			retries := 0
			alive := false
			for a := 0; a <= maxTaskRetries; a++ {
				key := uint64(sa)*attemptStride + uint64(a)
				if rng.UniformAt(c.failSeed, c.stageSeq, uint64(ti), key) >= c.failRate {
					alive = true
					break
				}
				if retries < maxTaskRetries {
					retries++
				}
			}
			if retries > 0 {
				r := float64(retries)
				e := &ext[t.Node]
				e.flops += t.Flops * r
				e.records += t.Records * r
				e.remote += t.RemoteBytes * r
				e.local += t.LocalBytes * r
				e.disk += t.DiskBytes * r
				c.metrics.TaskFailures += retries
			}
			if !alive {
				deadTask = true
			}
		}
	}
	cores := float64(p.CoresPerNode)
	ws := c.workScale
	var maxBusy float64
	for n := 0; n < c.Nodes; n++ {
		a := acc[n]
		if ext != nil {
			e := ext[n]
			a.flops += e.flops
			a.records += e.records
			a.remote += e.remote
			a.local += e.local
			a.disk += e.disk
		}
		if a.tasks == 0 {
			continue
		}
		gc := 1 + p.GCCoeff*ws*c.cachedBytes[n]/p.NodeMemory
		healthy := ws * ((a.flops/p.CoreFlops+a.records*p.RecordCost)/cores*gc +
			a.remote/(p.NetBandwidth*netFactor) + a.local/p.LocalBW + a.disk/p.DiskBW)
		waves := (a.tasks + p.CoresPerNode - 1) / p.CoresPerNode
		healthy += p.TaskOverhead * float64(waves)
		busy := healthy
		if n < len(slow) && slow[n] > 1 {
			busy = healthy * slow[n]
			if c.specThreshold > 0 && slow[n] >= c.specThreshold {
				// Speculative copies on healthy resources finish after the
				// launch delay plus a healthy execution; the stage takes
				// whichever finishes first.
				if spec := healthy + p.SpecLaunchDelay; spec < busy {
					busy = spec
					c.metrics.SpeculativeTasks += a.tasks
				}
			}
		}
		if busy > maxBusy {
			maxBusy = busy
		}
	}
	return maxBusy, deadTask
}

// InjectTaskFailures makes every task fail independently with the given
// probability; failed tasks are retried up to maxTaskRetries times,
// re-paying their cost each attempt, the way Spark and Hadoop recover from
// lost executors. A task that fails every retry kills its stage attempt,
// triggering bounded stage re-execution and eventually a job abort (Err).
// Rate 0 disables injection; rates outside [0, 1) return an error.
//
// Determinism contract: whether attempt a of task index t in stage s fails
// is rng.UniformAt(seed, s, t, key(a)) < rate, where s is the cluster's
// stage-sequence counter (incremented once per RunStage, in driver issue
// order) and key(a) spaces stage re-execution attempts apart. The draw
// depends only on (seed, stage order, task index), never on wall time,
// goroutine interleaving, or host parallelism, so a failure schedule
// replays bitwise-identically across runs.
func (c *Cluster) InjectTaskFailures(rate float64, seed uint64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("cluster: failure rate must be in [0, 1), got %g", rate)
	}
	c.mu.Lock()
	c.failRate = rate
	c.failSeed = seed
	c.mu.Unlock()
	return nil
}

// ChargeBroadcast charges the cost of distributing `bytes` of driver state
// to every node (torrent-style: pipelined over log2(nodes) rounds).
func (c *Cluster) ChargeBroadcast(bytes float64) {
	rounds := 1.0
	for n := 1; n < c.Nodes; n *= 2 {
		rounds++
	}
	c.mu.Lock()
	t := bytes * rounds / c.Profile.NetBandwidth
	c.recordTrace("broadcast", false, c.simTime, t, c.Nodes, 0, 0, 0)
	c.simTime += t
	c.metrics.SimTime[c.phase] += t
	c.mu.Unlock()
}

// ChargeJobStartup charges the fixed cost of launching one Hadoop job.
func (c *Cluster) ChargeJobStartup() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordTrace("job-startup", false, c.simTime, c.Profile.JobStartup, 0, 0, 0, 0)
	c.simTime += c.Profile.JobStartup
	c.metrics.SimTime[c.phase] += c.Profile.JobStartup
	c.metrics.Jobs++
}

// ChargeDriver charges driver-side compute (e.g. the R x R pseudo-inverse)
// that runs on a single core of the driver node.
func (c *Cluster) ChargeDriver(flops float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := flops / c.Profile.CoreFlops
	c.recordTrace("driver", false, c.simTime, t, 1, 0, 0, 0)
	c.simTime += t
	c.metrics.SimTime[c.phase] += t
	c.metrics.Flops[c.phase] += flops
}

// Parallel executes fn(0..n-1) on the host worker pool and waits for all of
// them. This is the *real* execution path: partition closures do the actual
// arithmetic here while RunStage separately charges modeled time. A panic in
// fn is re-raised on the calling goroutine (see par.Run).
func (c *Cluster) Parallel(n int, fn func(i int)) {
	par.Run(0, n, fn)
}
