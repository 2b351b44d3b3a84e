package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, ...) must panic")
		}
	}()
	New(0, LaptopProfile())
}

func TestNodeOfRoundRobin(t *testing.T) {
	c := New(4, LaptopProfile())
	for p := 0; p < 16; p++ {
		if c.NodeOf(p) != p%4 {
			t.Fatalf("NodeOf(%d) = %d", p, c.NodeOf(p))
		}
	}
}

func TestRunStageAccounting(t *testing.T) {
	c := New(2, LaptopProfile())
	c.SetPhase("MTTKRP-1")
	c.RunStage(true, []Task{
		{Node: 0, Flops: 1e6, Records: 100, RemoteBytes: 1e6, LocalBytes: 2e6},
		{Node: 1, Flops: 2e6, Records: 200, RemoteBytes: 3e6},
	})
	m := c.Metrics()
	if m.RemoteBytes["MTTKRP-1"] != 4e6 {
		t.Fatalf("remote bytes %v", m.RemoteBytes)
	}
	if m.LocalBytes["MTTKRP-1"] != 2e6 {
		t.Fatalf("local bytes %v", m.LocalBytes)
	}
	if m.Shuffles["MTTKRP-1"] != 1 || m.Stages != 1 || m.Tasks != 2 {
		t.Fatalf("counters: %+v", m)
	}
	if m.Flops["MTTKRP-1"] != 3e6 {
		t.Fatalf("flops %v", m.Flops)
	}
	if c.SimTime() <= 0 {
		t.Fatal("sim time must advance")
	}
}

func TestNarrowStageHasNoShuffleOrLatency(t *testing.T) {
	p := LaptopProfile()
	cNarrow := New(4, p)
	cWide := New(4, p)
	task := []Task{{Node: 0, Flops: 1e6, Records: 10}}
	cNarrow.RunStage(false, task)
	cWide.RunStage(true, task)
	if cNarrow.Metrics().TotalShuffles() != 0 {
		t.Fatal("narrow stage must not count a shuffle")
	}
	if cWide.SimTime()-cNarrow.SimTime() < p.SchedBase {
		t.Fatal("wide stage must pay scheduler latency")
	}
}

func TestMoreNodesReduceComputeTime(t *testing.T) {
	p := LaptopProfile()
	mkTasks := func(nodes int) []Task {
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = Task{Node: i % nodes, Flops: 1e9, Records: 1e5}
		}
		return tasks
	}
	c4 := New(4, p)
	c4.RunStage(false, mkTasks(4))
	c16 := New(16, p)
	c16.RunStage(false, mkTasks(16))
	if c16.SimTime() >= c4.SimTime() {
		t.Fatalf("16 nodes (%v s) should beat 4 nodes (%v s) on compute", c16.SimTime(), c4.SimTime())
	}
}

func TestSchedLatencyGrowsWithNodes(t *testing.T) {
	p := LaptopProfile()
	small := New(4, p)
	big := New(32, p)
	empty := []Task{{Node: 0}}
	small.RunStage(true, empty)
	big.RunStage(true, empty)
	if big.SimTime() <= small.SimTime() {
		t.Fatal("per-stage latency must grow with cluster size")
	}
}

func TestGCPressureSlowsCompute(t *testing.T) {
	p := LaptopProfile()
	cold := New(2, p)
	hot := New(2, p)
	hot.AddCached(0, 0.8*p.NodeMemory)
	task := []Task{{Node: 0, Flops: 1e10}}
	cold.RunStage(false, task)
	hot.RunStage(false, task)
	if hot.SimTime() <= cold.SimTime() {
		t.Fatal("cached bytes must add GC pressure to compute time")
	}
}

func TestAddCachedClampsAtZero(t *testing.T) {
	c := New(2, LaptopProfile())
	c.AddCached(0, 100)
	c.AddCached(0, -500)
	if c.CachedBytes() != 0 {
		t.Fatalf("cached bytes should clamp at 0, got %v", c.CachedBytes())
	}
}

func TestResetMetricsKeepsCache(t *testing.T) {
	c := New(2, LaptopProfile())
	c.AddCached(0, 42)
	c.RunStage(true, []Task{{Node: 0, RemoteBytes: 10}})
	c.ResetMetrics()
	if c.SimTime() != 0 || c.Metrics().TotalRemoteBytes() != 0 {
		t.Fatal("reset must zero metrics")
	}
	if c.CachedBytes() != 42*c.Profile.RawCacheFactor {
		t.Fatal("reset must not evict the cache")
	}
}

func TestChargeJobStartupAndDriver(t *testing.T) {
	p := LaptopProfile()
	c := New(2, p)
	c.ChargeJobStartup()
	if c.Metrics().Jobs != 1 || c.SimTime() != p.JobStartup {
		t.Fatal("job startup accounting wrong")
	}
	before := c.SimTime()
	c.ChargeDriver(p.CoreFlops) // exactly one second of driver time
	if math.Abs(c.SimTime()-before-1) > 1e-9 {
		t.Fatalf("driver charge wrong: %v", c.SimTime()-before)
	}
}

func TestParallelRunsAllAndIsReentrantSafe(t *testing.T) {
	c := New(4, LaptopProfile())
	var count int64
	c.Parallel(100, func(i int) {
		atomic.AddInt64(&count, int64(i))
	})
	if count != 4950 {
		t.Fatalf("sum of indices = %d, want 4950", count)
	}
	c.Parallel(0, func(int) { t.Error("must not call fn for n=0") })
}

func TestMetricsSubAndClone(t *testing.T) {
	c := New(2, LaptopProfile())
	c.SetPhase("a")
	c.RunStage(true, []Task{{Node: 0, RemoteBytes: 100, LocalBytes: 50, Flops: 10, Records: 5}})
	snap := c.Metrics()
	c.RunStage(true, []Task{{Node: 1, RemoteBytes: 30, DiskBytes: 7}})
	diff := c.Metrics().Sub(snap)
	if diff.RemoteBytes["a"] != 30 || diff.Shuffles["a"] != 1 || diff.Stages != 1 {
		t.Fatalf("sub: %+v", diff)
	}
	if diff.DiskBytes["a"] != 7 {
		t.Fatalf("disk sub: %v", diff.DiskBytes)
	}
	// Clone isolation.
	snap2 := c.Metrics()
	snap2.RemoteBytes["a"] = -1
	if c.Metrics().RemoteBytes["a"] == -1 {
		t.Fatal("Metrics() must return an isolated copy")
	}
}

func TestPhasesSorted(t *testing.T) {
	c := New(2, LaptopProfile())
	for _, ph := range []string{"z", "a", "m"} {
		c.SetPhase(ph)
		c.RunStage(false, []Task{{Node: 0, Flops: 1}})
	}
	got := c.Metrics().Phases()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("phases = %v", got)
	}
}

// Conservation: total sim time equals the sum over phases.
func TestSimTimeConservation(t *testing.T) {
	f := func(seed int64) bool {
		c := New(3, LaptopProfile())
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>40) / float64(1<<24)
		}
		for i := 0; i < 10; i++ {
			c.SetPhase([]string{"x", "y"}[i%2])
			c.RunStage(i%3 == 0, []Task{{Node: i % 3, Flops: next() * 1e9, RemoteBytes: next() * 1e6}})
		}
		return math.Abs(c.Metrics().TotalSimTime()-c.SimTime()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStagePanicsOnBadNode(t *testing.T) {
	c := New(2, LaptopProfile())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	c.RunStage(false, []Task{{Node: 5}})
}

func TestChargeBroadcast(t *testing.T) {
	c := New(8, LaptopProfile())
	c.ChargeBroadcast(c.Profile.NetBandwidth) // 1 second per round
	// 8 nodes -> 1 + ceil(log2(8)) = 4 rounds.
	if got := c.SimTime(); got != 4 {
		t.Fatalf("broadcast time %v, want 4", got)
	}
}

func TestInjectTaskFailuresAddsTimeDeterministically(t *testing.T) {
	run := func(rate float64) float64 {
		c := New(4, LaptopProfile())
		c.InjectTaskFailures(rate, 77)
		for s := 0; s < 20; s++ {
			tasks := make([]Task, 16)
			for i := range tasks {
				tasks[i] = Task{Node: i % 4, Flops: 1e8, Records: 1e4}
			}
			c.RunStage(true, tasks)
		}
		return c.SimTime()
	}
	clean := run(0)
	faulty := run(0.2)
	if faulty <= clean {
		t.Fatalf("failures must add time: %v vs %v", faulty, clean)
	}
	if run(0.2) != faulty {
		t.Fatal("failure injection must be deterministic in the seed")
	}

	// Failure counter.
	c := New(2, LaptopProfile())
	c.InjectTaskFailures(0.5, 3)
	c.RunStage(false, []Task{{Node: 0, Records: 10}, {Node: 1, Records: 10}})
	if c.Metrics().TaskFailures == 0 {
		t.Fatal("expected some injected failures at rate 0.5")
	}
}

func TestInjectTaskFailuresValidation(t *testing.T) {
	c := New(2, LaptopProfile())
	for _, rate := range []float64{1.0, 1.5, -0.1} {
		if err := c.InjectTaskFailures(rate, 1); err == nil {
			t.Errorf("rate %g must be rejected", rate)
		}
	}
	// A rejected rate must not change the cluster's configuration.
	c.RunStage(false, []Task{{Node: 0, Records: 10}})
	if c.Metrics().TaskFailures != 0 {
		t.Fatal("rejected rate leaked into the cluster")
	}
	if err := c.InjectTaskFailures(0.5, 1); err != nil {
		t.Fatalf("valid rate rejected: %v", err)
	}
}

func TestTraceRecordsEventsAndExports(t *testing.T) {
	c := New(2, LaptopProfile())
	c.EnableTrace()
	c.SetPhase("MTTKRP-1")
	c.RunStage(true, []Task{{Node: 0, Records: 100, RemoteBytes: 50}})
	c.ChargeJobStartup()
	c.ChargeDriver(1e6)
	c.ChargeBroadcast(1e6)
	ev := c.Trace()
	if len(ev) != 4 {
		t.Fatalf("trace has %d events, want 4", len(ev))
	}
	if ev[0].Kind != "stage" || !ev[0].Wide || ev[0].Remote != 50 {
		t.Fatalf("stage event: %+v", ev[0])
	}
	// Events must tile the timeline: each starts where the previous ended.
	for i := 1; i < len(ev); i++ {
		if math.Abs(ev[i].Start-(ev[i-1].Start+ev[i-1].Dur)) > 1e-9 {
			t.Fatalf("event %d not contiguous: %+v after %+v", i, ev[i], ev[i-1])
		}
	}
	last := ev[len(ev)-1]
	if math.Abs(last.Start+last.Dur-c.SimTime()) > 1e-9 {
		t.Fatalf("trace end %v != sim time %v", last.Start+last.Dur, c.SimTime())
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ev); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(parsed) != 4 || parsed[0]["ph"] != "X" {
		t.Fatalf("chrome trace malformed: %v", parsed)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c := New(2, LaptopProfile())
	c.RunStage(false, []Task{{Node: 0, Records: 1}})
	if len(c.Trace()) != 0 {
		t.Fatal("tracing must be opt-in")
	}
}

// A partition closure that panics must be recoverable by whoever called
// Parallel, on any core count: it used to die on a pool goroutine and take
// the process with it whenever GOMAXPROCS was 2 or more.
func TestParallelReraisesPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := New(2, LaptopProfile())
	defer func() {
		if v := recover(); v != "partition 1" {
			t.Fatalf("recovered %v, want the panic of partition 1", v)
		}
	}()
	c.Parallel(8, func(i int) {
		if i >= 1 {
			panic(fmt.Sprintf("partition %d", i))
		}
	})
	t.Fatal("Parallel returned normally")
}
