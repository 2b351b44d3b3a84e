package bigtensor

import (
	"math"
	"testing"

	"cstf/internal/cluster"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/mapreduce"
	"cstf/internal/tensor"
)

func testEnv(nodes, reducers int) *mapreduce.Env {
	return mapreduce.NewEnv(cluster.New(nodes, cluster.LaptopProfile()), reducers)
}

func TestMTTKRPMatchesSerialAllModes(t *testing.T) {
	x := tensor.GenUniform(3, 400, 15, 12, 18)
	rank := 3
	env := testEnv(4, 8)
	s, err := New(env, x, rank, 5)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]*la.Dense, 3)
	for n := 0; n < 3; n++ {
		serial[n] = cpals.InitFactor(5, n, x.Dims[n], rank)
	}
	for mode := 0; mode < 3; mode++ {
		mf := s.MTTKRP(mode)
		got := la.NewDense(x.Dims[mode], rank)
		for _, r := range mf.Collect() {
			copy(got.Row(int(r.Idx)), r.Vec)
		}
		want := cpals.MTTKRP(x, mode, serial)
		if d := la.MaxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("mode %d: BIGtensor MTTKRP differs from serial by %g", mode, d)
		}
	}
}

func TestSolveMatchesSerialFactors(t *testing.T) {
	x := tensor.GenUniform(7, 500, 18, 15, 12)
	opts := cpals.Options{Rank: 2, MaxIters: 3, Seed: 11}
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(4, 8)
	got, err := Solve(env, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if la.VecMaxAbsDiff(got.Lambda, want.Lambda) > 1e-6*(1+la.VecNorm(want.Lambda)) {
		t.Fatalf("lambda %v vs serial %v", got.Lambda, want.Lambda)
	}
	for n := range want.Factors {
		if d := la.MaxAbsDiff(got.Factors[n], want.Factors[n]); d > 1e-6 {
			t.Fatalf("factor %d differs from serial by %g", n, d)
		}
	}
	// Final fit diagnostic must agree with the serial fit.
	if math.Abs(got.Fits[0]-want.Fit()) > 1e-6 {
		t.Fatalf("fit %v vs serial %v", got.Fits[0], want.Fit())
	}
}

func TestRejectsNon3rdOrder(t *testing.T) {
	x4 := tensor.GenUniform(1, 100, 5, 5, 5, 5)
	if _, err := New(testEnv(2, 4), x4, 2, 1); err == nil {
		t.Fatal("4th-order tensor must be rejected, as in BIGtensor")
	}
	empty := tensor.New(3, 3, 3)
	if _, err := New(testEnv(2, 4), empty, 2, 1); err == nil {
		t.Fatal("empty tensor must be rejected")
	}
}

func TestJobAndShuffleCounts(t *testing.T) {
	// Table 4: BIGtensor performs 4 shuffles per MTTKRP. Per factor update
	// it launches 6 jobs (4 MTTKRP + update + gram).
	x := tensor.GenUniform(9, 300, 10, 10, 10)
	env := testEnv(2, 4)
	s, err := New(env, x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	env.C.ResetMetrics()
	s.MTTKRP(0)
	m := env.C.Metrics()
	if got := m.Shuffles[PhaseOf(0)]; got != 4 {
		t.Fatalf("shuffles per MTTKRP = %d, want 4", got)
	}
	if m.Jobs != 4 {
		t.Fatalf("jobs per MTTKRP = %d, want 4", m.Jobs)
	}

	env.C.ResetMetrics()
	s.Step(0)
	if got := env.C.Metrics().Jobs; got != 6 {
		t.Fatalf("jobs per factor update = %d, want 6", got)
	}
}

func TestHadoopSlowerThanItsOwnComputeFloor(t *testing.T) {
	// The modeled time of one BIGtensor MTTKRP must include at least the
	// job startup floor: 4 jobs * JobStartup.
	x := tensor.GenUniform(13, 300, 10, 10, 10)
	env := testEnv(2, 4)
	s, err := New(env, x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	env.C.ResetMetrics()
	s.MTTKRP(0)
	if env.C.SimTime() < 4*env.C.Profile.JobStartup {
		t.Fatalf("sim time %v below the 4-job startup floor", env.C.SimTime())
	}
}

func TestBinPreservesSparsityNotValues(t *testing.T) {
	// Job 2 must operate on bin(X): results must be independent of the
	// tensor's values for the B-side intermediate. We test indirectly: two
	// tensors with identical sparsity but different values must produce
	// identical stage-2 intermediates, which we observe through the final
	// MTTKRP where factor B rows are all ones.
	dims := []int{6, 5, 4}
	a := tensor.New(dims...)
	b := tensor.New(dims...)
	src := []struct{ i, j, k int }{{0, 1, 2}, {3, 4, 1}, {5, 0, 0}, {2, 2, 3}}
	for n, c := range src {
		a.Append(float64(n+1), c.i, c.j, c.k)
		b.Append(float64(10*(n+1)), c.i, c.j, c.k)
	}
	// With C = ones and B = ones, mode-0 MTTKRP reduces to row sums of the
	// values: scaling values by 10 must scale results by 10 exactly —
	// which can only happen if job 2 contributed the pattern, not values.
	envA, envB := testEnv(1, 2), testEnv(1, 2)
	sa, _ := New(envA, a, 2, 7)
	sb, _ := New(envB, b, 2, 7)
	ra := sa.MTTKRP(0).Collect()
	rb := sb.MTTKRP(0).Collect()
	if len(ra) != len(rb) {
		t.Fatal("row counts differ")
	}
	am := map[uint32][]float64{}
	for _, r := range ra {
		am[r.Idx] = r.Vec
	}
	for _, r := range rb {
		for c := range r.Vec {
			if math.Abs(r.Vec[c]-10*am[r.Idx][c]) > 1e-9*math.Abs(r.Vec[c]) {
				t.Fatalf("value scaling not linear: bin() must have leaked values")
			}
		}
	}
}

func TestBinPassCounters(t *testing.T) {
	// Each MTTKRP performs one bin() pass (job 2) and reads the tensor
	// from HDFS twice (jobs 1-2) — the overheads Section 4.3 attributes
	// to the matricized workflow.
	x := tensor.GenUniform(17, 200, 8, 8, 8)
	env := testEnv(2, 4)
	s, err := New(env, x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		s.MTTKRP(n)
	}
	if got := env.Counter("bin-passes"); got != 3 {
		t.Fatalf("bin passes = %d, want 3 (one per MTTKRP)", got)
	}
	if got := env.Counter("tensor-hdfs-reads"); got != 6 {
		t.Fatalf("tensor reads = %d, want 6 (two per MTTKRP)", got)
	}
}
