package dist

import (
	"sync"
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

// sparseTensor is large-dimensioned relative to its nonzero count, so each
// worker's touched-row sets are a small fraction of every mode and delta
// broadcasts genuinely engage (on plantedTensor's tiny dims every worker
// touches every row and the size heuristic falls back to full sends).
func sparseTensor() *tensor.COO {
	return tensor.GenLowRank(11, 2000, 4, 0.01, 3000, 2500, 2000)
}

func sparseOpts() cpals.Options {
	return cpals.Options{Rank: 4, MaxIters: 4, Seed: 9, Parallelism: 2}
}

// TestToggleMatrixBitwise runs the delta-broadcast toggle both ways at 4
// workers. Both runs must be bitwise identical to the serial solver, run
// one stage per MTTKRP, and the delta run must actually send delta frames
// and strictly less factor traffic than the full-broadcast run.
func TestToggleMatrixBitwise(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	var deltaBytes, fullBytes int64
	for _, cb := range []struct {
		label   string
		noDelta bool
	}{
		{"delta", false},
		{"full broadcast", true},
	} {
		c, err := StartInProcess(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.noDelta = cb.noDelta
		got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", cb.label, err)
		}
		sameBits(t, cb.label, want, got)
		if wantStages := opts.MaxIters * x.Order(); stats.Stages != wantStages {
			t.Fatalf("%s: %d stages, want %d (one per MTTKRP)", cb.label, stats.Stages, wantStages)
		}
		if cb.noDelta {
			if stats.DeltaFrames != 0 {
				t.Fatalf("%s: %d delta frames with deltas disabled", cb.label, stats.DeltaFrames)
			}
			fullBytes = stats.FactorBytes
		} else {
			if stats.DeltaFrames == 0 {
				t.Fatalf("%s: no delta frames sent: %+v", cb.label, stats)
			}
			deltaBytes = stats.FactorBytes
		}
		if stats.FactorBytes == 0 || stats.ShardBytes == 0 {
			t.Fatalf("%s: traffic breakdown missing: %+v", cb.label, stats)
		}
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta broadcasts did not reduce factor traffic: %d >= %d bytes", deltaBytes, fullBytes)
	}
}

// TestCSFKernelBitwiseMatchesSerialCSF checks the distributed CSF path
// against its own serial reference: dist with UseCSF reproduces
// cpals.Solve with CSFKernel bit for bit at every worker count. (The CSF
// kernel is NOT bitwise against the COO kernel — different association of
// the same sums — which is exactly why it carries its own reference.)
func TestCSFKernelBitwiseMatchesSerialCSF(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	opts.CSFKernel = true
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c, err := StartInProcess(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.UseCSF = true
		got, _, err := Solve(x, opts, cpals.Update{}, cfg)
		c.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		sameBits(t, "csf workers", want, got)
	}
}

// TestChaosReassignmentResyncsFullFactor kills a worker mid-run with delta
// broadcasts active. The substitute inherits the dead worker's tasks and
// touched-row sets; because its resident factors are stale for the
// inherited rows, the coordinator must resync it with FULL factor frames
// (never a delta against state it was not sent) — and the run still
// matches serial bit for bit.
func TestChaosReassignmentResyncsFullFactor(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
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
	// Stage 2 is iteration 0's second MTTKRP: by then factor 0 has been
	// updated, so the substitute is guaranteed stale.
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "chaos + deltas", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("want one dead worker, got %+v", stats)
	}
	if stats.DeltaFrames == 0 {
		t.Fatalf("delta broadcasts never engaged: %+v", stats)
	}
	if stats.Resyncs == 0 {
		t.Fatalf("substitute worker was never resynced with a full factor: %+v", stats)
	}
}

// TestMidFlightKillWithDeltas is the in-flight reassignment path (kill
// AFTER dispatch) under delta broadcasts: tasks already on the dead
// worker's socket are re-dispatched to a substitute that needs a resync,
// and the result still matches serial bit for bit.
func TestMidFlightKillWithDeltas(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
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
		if stage == 3 {
			once.Do(func() { c.Kills[2]() })
		}
	}
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "mid-flight kill + deltas", want, got)
	if stats.WorkerDeaths != 1 || stats.Reassignments == 0 {
		t.Fatalf("want one death with reassignments, got %+v", stats)
	}
}
