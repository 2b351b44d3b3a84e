package dist

import (
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

func plantedTensor() *tensor.COO {
	return tensor.GenLowRank(42, 3000, 4, 0.01, 60, 50, 40)
}

func solveOpts() cpals.Options {
	return cpals.Options{Rank: 4, MaxIters: 5, Seed: 7, Parallelism: 3}
}

// sameBits asserts two results are bitwise identical: lambda, every factor
// element, and every per-iteration fit.
func sameBits(t *testing.T, label string, want, got *cpals.Result) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Fatalf("%s: iters %d != %d", label, got.Iters, want.Iters)
	}
	for r := range want.Lambda {
		if math.Float64bits(got.Lambda[r]) != math.Float64bits(want.Lambda[r]) {
			t.Fatalf("%s: lambda[%d] %v != %v", label, r, got.Lambda[r], want.Lambda[r])
		}
	}
	for n, f := range want.Factors {
		g := got.Factors[n]
		if g.Rows != f.Rows || g.Cols != f.Cols {
			t.Fatalf("%s: factor %d shape %dx%d != %dx%d", label, n, g.Rows, g.Cols, f.Rows, f.Cols)
		}
		for i, v := range f.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: factor %d element %d: %v != %v", label, n, i, g.Data[i], v)
			}
		}
	}
	if len(got.Fits) != len(want.Fits) {
		t.Fatalf("%s: %d fits != %d", label, len(got.Fits), len(want.Fits))
	}
	for i := range want.Fits {
		if math.Float64bits(got.Fits[i]) != math.Float64bits(want.Fits[i]) {
			t.Fatalf("%s: fit[%d] %v != %v", label, i, got.Fits[i], want.Fits[i])
		}
	}
}

// TestDistBitwiseMatchesSerial is the PR 1 determinism guarantee extended
// over the wire: 1, 2, and 4 distributed workers all reproduce the serial
// solver bit for bit on a planted-rank tensor, under the least-squares
// update and under the nonnegative one.
func TestDistBitwiseMatchesSerial(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	nonneg := cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: 3}}
	for _, u := range []cpals.Update{{}, nonneg} {
		want, err := cpals.SolveWith(x, opts, u)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			c, err := StartInProcess(n)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := Solve(x, opts, u, c.Config())
			c.Close()
			if err != nil {
				t.Fatalf("%d workers: %v", n, err)
			}
			label := fmt.Sprintf("%+v, %d workers", u.Rule, n)
			sameBits(t, label, want, got)
			if stats.Workers != n || stats.WorkersAlive != n {
				t.Fatalf("%s: stats workers %d/%d", label, stats.WorkersAlive, stats.Workers)
			}
			if stats.BytesSent == 0 || stats.BytesRecv == 0 || stats.WallSeconds <= 0 {
				t.Fatalf("%s: real measurements missing: %+v", label, stats)
			}
			if stats.WorkerDeaths != 0 || stats.Reassignments != 0 {
				t.Fatalf("%s: unexpected failures: %+v", label, stats)
			}
		}
	}
}

// TestDistBitwiseThroughFlush is the same guarantee on the tensor of
// cpals.TestCollapseBitwiseContracts, whose rank-24 model collapses and sends
// most factor entries through la.FlushBelow: the flush lives in the
// coordinator's normalize, so two workers still reproduce Serial bit for bit.
func TestDistBitwiseThroughFlush(t *testing.T) {
	x := tensor.GenLowRank(21, 3000, 3, 0.1, 1200, 800, 600, 400)
	opts := cpals.Options{Rank: 24, MaxIters: 8, Seed: 5, Parallelism: 2}
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := Solve(x, opts, cpals.Update{}, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "2 workers, collapsing model", want, got)
}

// TestChaosKillSurvives injects a NodeCrash through the chaos plan: a real
// worker connection is severed at a stage boundary mid-iteration, the
// coordinator re-homes its ranges (re-shipping shards), and the result is
// still bitwise identical to the serial run, with COO workers and with
// CSF workers (against the serial CSF solver).
func TestChaosKillSurvives(t *testing.T) {
	x := plantedTensor()
	for _, csf := range []bool{false, true} {
		opts := solveOpts()
		opts.CSFKernel = csf
		want, err := cpals.Solve(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := StartInProcess(3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.UseCSF = csf
		// Stage 2 is iteration 0's mode-1 MTTKRP (one stage per MTTKRP), so
		// the kill lands mid-iteration with factors in flight.
		cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
		got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("after chaos kill, csf %v", csf)
		sameBits(t, label, want, got)
		if stats.WorkerDeaths != 1 || stats.WorkersAlive != 2 {
			t.Fatalf("%s: want exactly one dead worker, got %+v", label, stats)
		}
		if stats.ShardResends == 0 {
			t.Fatalf("%s: dead worker's shards were never re-shipped: %+v", label, stats)
		}
	}
}

// TestMidFlightKillReassigns kills a worker AFTER its tasks were dispatched,
// forcing the in-flight reassignment path rather than the stage-boundary
// avoidance path. The result must still match serial bit for bit.
func TestMidFlightKillReassigns(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	var once sync.Once
	cfg.AfterDispatch = func(stage uint64) {
		if stage == 2 {
			once.Do(func() { c.Kills[2]() })
		}
	}
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after mid-flight kill", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("want one dead worker, got %+v", stats)
	}
}

// TestAllWorkersDead exercises both fleet-collapse behaviours: by default
// the coordinator computes the remaining MTTKRPs itself with the kernel the
// workers ran (bitwise identical to the serial run, no hang), and with the
// floor disabled (MinWorkers < 0) the collapse surfaces as a typed
// *NoWorkersError.
func TestAllWorkersDead(t *testing.T) {
	x := plantedTensor()
	serial, err := cpals.Solve(x, solveOpts())
	if err != nil {
		t.Fatal(err)
	}

	killAll := func(c *LocalCluster) func(uint64) {
		return func(stage uint64) {
			if stage == 1 {
				c.Kills[0]()
				c.Kills[1]()
			}
		}
	}

	degrades := func(t *testing.T, csf bool, want *cpals.Result) {
		c, err := StartInProcess(2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cfg := c.Config()
		cfg.UseCSF = csf
		cfg.AfterDispatch = killAll(c)
		res, st, err := Solve(x, solveOpts(), cpals.Update{}, cfg)
		if err != nil {
			t.Fatalf("degraded solve failed: %v", err)
		}
		if !st.Degraded {
			t.Fatal("Stats.Degraded not set after fleet collapse")
		}
		sameBits(t, "degraded", want, res)
	}
	t.Run("degrades", func(t *testing.T) { degrades(t, false, serial) })
	// Under UseCSF the coordinator falls back to the CSF kernel, so the
	// reference is the serial CSF solve.
	t.Run("degrades-csf", func(t *testing.T) {
		o := solveOpts()
		o.CSFKernel = true
		want, err := cpals.Solve(x, o)
		if err != nil {
			t.Fatal(err)
		}
		degrades(t, true, want)
	})

	t.Run("floor-disabled", func(t *testing.T) {
		c, err := StartInProcess(2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cfg := c.Config()
		cfg.MinWorkers = -1
		cfg.AfterDispatch = killAll(c)
		_, _, err = Solve(x, solveOpts(), cpals.Update{}, cfg)
		var nw *NoWorkersError
		if !errors.As(err, &nw) {
			t.Fatalf("want *NoWorkersError with floor disabled, got %v", err)
		}
	})
}

// TestSpawnedWorkerProcesses runs the full OS-process story: build the real
// cstf-worker binary, fork two of them, solve over TCP, and kill one
// process mid-run on a second solve.
func TestSpawnedWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "cstf-worker")
	build := exec.Command("go", "build", "-o", bin, "cstf/cmd/cstf-worker")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cstf-worker: %v\n%s", err, out)
	}

	x := plantedTensor()
	opts := solveOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}

	c, err := SpawnWorkers(bin, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, stats, err := Solve(x, opts, cpals.Update{}, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "2 worker processes", want, got)
	if stats.BytesSent == 0 || stats.BytesRecv == 0 {
		t.Fatalf("no bytes on the wire: %+v", stats)
	}

	// Second cluster: SIGKILL one process mid-run via the chaos plan.
	c2, err := SpawnWorkers(bin, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cfg := c2.Config()
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 0, Stage: 3})
	got2, stats2, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after process kill", want, got2)
	if stats2.WorkerDeaths != 1 {
		t.Fatalf("want one dead process, got %+v", stats2)
	}
}

// TestMinWorkersFloorDegradesBothTiers holds both tiers to the live-worker
// floor: with MinWorkers = 2 over two workers, rejoin off and worker 1
// killed at stage 2, the next iteration's first MTTKRP finds one live
// worker, so the exact and the sampled update both finish coordinator-local, flagged
// Degraded, bitwise equal to their serial solvers.
func TestMinWorkersFloorDegradesBothTiers(t *testing.T) {
	x := plantedTensor()
	cluster := func() (*LocalCluster, Config) {
		c, err := StartInProcess(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.MinWorkers = 2
		cfg.DisableRejoin = true
		cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
		return c, cfg
	}

	want, err := cpals.Solve(x, solveOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, cfg := cluster()
	got, stats, err := Solve(x, solveOpts(), cpals.Update{}, cfg)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || stats.WorkerDeaths != 1 {
		t.Fatalf("Solve: want one death and degradation, got %+v", stats)
	}
	sameBits(t, "Solve under the floor", want, got)

	wantS, err := rals.Solve(x, ralsOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, cfg = cluster()
	gotS, statsS, err := solveSampled(x, ralsOpts(), cfg)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !statsS.Degraded || statsS.WorkerDeaths != 1 {
		t.Fatalf("sampled: want one death and degradation, got %+v", statsS)
	}
	sameBits(t, "sampled under the floor", wantS, gotS)
}
