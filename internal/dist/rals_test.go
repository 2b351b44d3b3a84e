package dist

import (
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

func ralsOpts() rals.Options {
	return rals.Options{
		Options:        cpals.Options{Rank: 4, MaxIters: 6, Seed: 7, Parallelism: 3},
		SampleFraction: 0.3, ResampleEvery: 2,
	}
}

// solveSampled runs o's randomized update with its MTTKRPs on cfg's fleet.
func solveSampled(x *tensor.COO, o rals.Options, cfg Config) (*cpals.Result, Stats, error) {
	u, err := o.Update(x)
	if err != nil {
		return nil, Stats{}, err
	}
	return Solve(x, o.Options, u, cfg)
}

// TestSampledBitwiseMatchesSerial is the rals determinism guarantee over
// the wire: 1, 2, and 4 distributed workers all reproduce the serial
// sampled solver bit for bit — sampling, kept rows, exact fits, everything.
func TestSampledBitwiseMatchesSerial(t *testing.T) {
	x := plantedTensor()
	o := ralsOpts()
	want, err := rals.Solve(x, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c, err := StartInProcess(n)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := solveSampled(x, o, c.Config())
		c.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		label := map[int]string{1: "1 worker", 2: "2 workers", 4: "4 workers"}[n]
		sameBits(t, label, want, got)
		if stats.Workers != n {
			t.Fatalf("%s: stats workers %d", label, stats.Workers)
		}
		if stats.ShardBytes == 0 {
			t.Fatalf("%s: no sampled shards shipped: %+v", label, stats)
		}
		if stats.Degraded {
			t.Fatalf("%s: unexpected degradation", label)
		}
	}
}

// TestSampledExactPolishBitwise runs the sampled+polish composition over
// the wire and checks it against the serial run bitwise.
func TestSampledExactPolishBitwise(t *testing.T) {
	x := plantedTensor()
	o := ralsOpts()
	o.FinalFitOnly = true
	o.ExactFinishIters = 2
	want, err := rals.Solve(x, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := solveSampled(x, o, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "sampled+polish 3 workers", want, got)
}

// TestSampledKillDegrades crashes a worker mid-run: the kernel either
// re-homes the sampled shards or degrades to coordinator-local sampled
// MTTKRPs — both bitwise identical to the serial run.
func TestSampledKillDegrades(t *testing.T) {
	x := plantedTensor()
	o := ralsOpts()
	want, err := rals.Solve(x, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	cfg.Retry = fastRetry()
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
	got, stats, err := solveSampled(x, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WorkerDeaths == 0 {
		t.Fatalf("chaos kill never fired: %+v", stats)
	}
	sameBits(t, "after worker kill", want, got)
}

// TestSampledFullBudgetMatchesExactDist pins the degenerate case across
// the stack: budget >= nnz makes the sampler's per-mode updates exact, so
// its factors match the serial EXACT solver bitwise.
func TestSampledFullBudgetMatchesExactDist(t *testing.T) {
	x := plantedTensor()
	o := ralsOpts()
	o.SampleFraction = 0
	o.SampleCount = x.NNZ()
	o.ResampleEvery = 1
	want, err := rals.Solve(x, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := solveSampled(x, o, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "full budget 2 workers", want, got)
}
