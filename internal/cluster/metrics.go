package cluster

import (
	"maps"
	"sort"
)

// Metrics mirrors the Spark metrics-collection service the paper uses in
// Section 6.5: remote and local shuffle bytes read, plus counters for
// shuffles, stages, tasks, records, and floating-point work. Everything is
// keyed by a caller-supplied phase label (e.g. "MTTKRP-1") so Figure 4's
// stacked per-mode breakdown can be regenerated.
type Metrics struct {
	RemoteBytes  map[string]float64 // shuffle bytes read from remote nodes, by phase
	LocalBytes   map[string]float64 // shuffle bytes read from the local node, by phase
	Shuffles     map[string]int     // shuffle operations, by phase
	Flops        map[string]float64 // floating-point operations charged, by phase
	Records      map[string]float64 // records processed, by phase
	SimTime      map[string]float64 // modeled seconds, by phase
	DiskBytes    map[string]float64 // HDFS bytes read+written, by phase
	Stages       int
	Tasks        int
	Jobs         int // Hadoop jobs launched
	TaskFailures int // injected task failures that were retried

	// Fault-tolerance counters (see fault.go).
	StageRetries         int     // full-stage re-executions after a task died
	NodeCrashes          int     // node-crash faults delivered
	DiskFailures         int     // disk-failure faults delivered
	StragglerStages      int     // stages that ran with a straggling node
	SpeculativeTasks     int     // tasks rescued by speculative execution
	RecomputedPartitions int     // partitions rebuilt from lineage
	LostCacheBytes       float64 // cached bytes destroyed by node crashes
	ReReplicatedBytes    float64 // HDFS bytes copied to restore replication
}

func newMetrics() *Metrics {
	return &Metrics{
		RemoteBytes: map[string]float64{},
		LocalBytes:  map[string]float64{},
		Shuffles:    map[string]int{},
		Flops:       map[string]float64{},
		Records:     map[string]float64{},
		SimTime:     map[string]float64{},
		DiskBytes:   map[string]float64{},
	}
}

// sum adds the per-phase values in sorted phase order: float addition is
// not associative, so a sum in map order would differ in its last bits from
// run to run.
func sum[V int | float64](m map[string]V) V {
	var s V
	for _, k := range sortedPhases(m) {
		s += m[k]
	}
	return s
}

// sortedPhases returns the phase labels of m in sorted order.
func sortedPhases[V any](m map[string]V) []string {
	phases := make([]string, 0, len(m))
	for k := range m {
		phases = append(phases, k)
	}
	sort.Strings(phases)
	return phases
}

// TotalRemoteBytes returns remote shuffle bytes read across all phases.
func (m *Metrics) TotalRemoteBytes() float64 { return sum(m.RemoteBytes) }

// TotalLocalBytes returns local shuffle bytes read across all phases.
func (m *Metrics) TotalLocalBytes() float64 { return sum(m.LocalBytes) }

// TotalShuffles returns the number of shuffle operations across all phases.
func (m *Metrics) TotalShuffles() int { return sum(m.Shuffles) }

// TotalFlops returns the floating-point operations charged across phases.
func (m *Metrics) TotalFlops() float64 { return sum(m.Flops) }

// TotalSimTime returns the modeled seconds across all phases.
func (m *Metrics) TotalSimTime() float64 { return sum(m.SimTime) }

// Phases returns the phase labels seen so far, sorted for stable output.
func (m *Metrics) Phases() []string {
	seen := map[string]bool{}
	for _, mm := range []map[string]float64{m.RemoteBytes, m.LocalBytes, m.Flops, m.SimTime} {
		for k := range mm {
			seen[k] = true
		}
	}
	return sortedPhases(seen)
}

// Clone returns a deep copy of the metrics.
func (m *Metrics) Clone() *Metrics {
	c := *m
	c.RemoteBytes, c.LocalBytes, c.Flops = maps.Clone(m.RemoteBytes), maps.Clone(m.LocalBytes), maps.Clone(m.Flops)
	c.Records, c.SimTime, c.DiskBytes = maps.Clone(m.Records), maps.Clone(m.SimTime), maps.Clone(m.DiskBytes)
	c.Shuffles = maps.Clone(m.Shuffles)
	return &c
}

// Sub returns m - other, field-wise; used to measure a window (e.g. one
// CP-ALS iteration) by snapshotting before and after.
func (m *Metrics) Sub(other *Metrics) *Metrics {
	d := m.Clone()
	subPhases(d.RemoteBytes, other.RemoteBytes)
	subPhases(d.LocalBytes, other.LocalBytes)
	subPhases(d.Shuffles, other.Shuffles)
	subPhases(d.Flops, other.Flops)
	subPhases(d.Records, other.Records)
	subPhases(d.SimTime, other.SimTime)
	subPhases(d.DiskBytes, other.DiskBytes)
	d.Stages -= other.Stages
	d.Tasks -= other.Tasks
	d.Jobs -= other.Jobs
	d.TaskFailures -= other.TaskFailures
	d.StageRetries -= other.StageRetries
	d.NodeCrashes -= other.NodeCrashes
	d.DiskFailures -= other.DiskFailures
	d.StragglerStages -= other.StragglerStages
	d.SpeculativeTasks -= other.SpeculativeTasks
	d.RecomputedPartitions -= other.RecomputedPartitions
	d.LostCacheBytes -= other.LostCacheBytes
	d.ReReplicatedBytes -= other.ReReplicatedBytes
	return d
}

// subPhases subtracts each phase of o from the same phase of d.
func subPhases[V int | float64](d, o map[string]V) {
	for k, v := range o {
		d[k] -= v
	}
}
