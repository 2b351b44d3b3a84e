package cstf_test

import (
	"path/filepath"
	"strings"
	"testing"

	"cstf"
)

// Randomized ALS through the public API: sampled solves return sensible
// models, resume is bitwise, and the algorithm registry backs both the
// dispatch error and the published name list.

func TestRALSDecomposePublicAPI(t *testing.T) {
	x := apiTestTensor()
	dec, err := cstf.Decompose(x, cstf.Options{
		Algorithm: cstf.RALS, Rank: 3, MaxIters: 8, NoConvergenceCheck: true, Seed: 5,
		RALS: cstf.RALSOptions{SampleFraction: 0.4, ResampleEvery: 2, ExactFinishIters: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Iters != 8 {
		t.Fatalf("Iters=%d, want 8", dec.Iters)
	}
	if dec.Fit() <= 0 || dec.Fit() > 1 {
		t.Fatalf("implausible fit %v", dec.Fit())
	}

	// The zero-valued RALS group defaults to a 10% sample fraction rather
	// than rejecting the solve.
	if _, err := cstf.Decompose(x, cstf.Options{
		Algorithm: cstf.RALS, Rank: 3, MaxIters: 3, NoConvergenceCheck: true, Seed: 5,
	}); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

// Mid-solve checkpoint, resume via the public API: the resumed run must be
// bitwise identical to the uninterrupted one — the checkpoint carries the
// sampler schedule and the unnormalized factors, and the sampler draws are
// a pure function of (seed, epoch, mode).
func TestRALSResumeMatchesUninterrupted(t *testing.T) {
	x := apiTestTensor()
	path := filepath.Join(t.TempDir(), "cp.gob")
	full := cstf.Options{
		Algorithm: cstf.RALS, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 5,
		RALS: cstf.RALSOptions{SampleFraction: 0.3, ResampleEvery: 2},
	}
	want, err := cstf.Decompose(x, full)
	if err != nil {
		t.Fatal(err)
	}

	head := full
	head.MaxIters = 4
	head.Faults.CheckpointEvery = 2
	head.Faults.CheckpointPath = path
	if _, err := cstf.Decompose(x, head); err != nil {
		t.Fatalf("head: %v", err)
	}

	got, err := cstf.DecomposeResume(x, path, full)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Iters != want.Iters {
		t.Fatalf("resumed Iters=%d, want %d", got.Iters, want.Iters)
	}
	if len(got.Fits) != len(want.Fits) {
		t.Fatalf("resumed fits %v, want %v", got.Fits, want.Fits)
	}
	for i := range want.Fits {
		if got.Fits[i] != want.Fits[i] {
			t.Fatalf("resumed fit[%d] %v, want %v", i, got.Fits[i], want.Fits[i])
		}
	}
	requireSameFactors(t, want, got, 0)
}

// A non-rals checkpoint must not resume as rals, and a rals checkpoint
// written by this version always carries the sampler state.
func TestRALSResumeRejectsForeignCheckpoint(t *testing.T) {
	x := apiTestTensor()
	path := filepath.Join(t.TempDir(), "cp.gob")
	head := cstf.Options{
		Algorithm: cstf.Serial, Rank: 3, MaxIters: 2, NoConvergenceCheck: true, Seed: 5,
		Faults: cstf.FaultOptions{CheckpointEvery: 1, CheckpointPath: path},
	}
	if _, err := cstf.Decompose(x, head); err != nil {
		t.Fatal(err)
	}
	if _, err := cstf.DecomposeResume(x, path, cstf.Options{
		Algorithm: cstf.RALS, Rank: 3, MaxIters: 4,
	}); err == nil {
		t.Fatal("rals resume from a serial checkpoint did not fail")
	}
}

// The exported registry names every algorithm once, and the dispatch error
// for an unknown algorithm lists them all.
func TestAlgorithmRegistry(t *testing.T) {
	names := cstf.AlgorithmNames()
	want := map[string]bool{"serial": true, "coo": true, "qcoo": true, "bigtensor": true, "dist": true, "rals": true, "ncp": true}
	if len(names) != len(want) {
		t.Fatalf("AlgorithmNames() = %v, want the %d known algorithms", names, len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected algorithm %q in %v", n, names)
		}
	}

	_, err := cstf.Decompose(apiTestTensor(), cstf.Options{Algorithm: "nope", Rank: 2, MaxIters: 2})
	if err == nil {
		t.Fatal("unknown algorithm did not fail")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("unknown-algorithm error %q does not mention %q", err, n)
		}
	}
}

// Chaos injection models distributed faults; on the sampled serial solver
// it is a contradiction and must error, like Serial.
func TestRALSChaosRejected(t *testing.T) {
	_, err := cstf.Decompose(apiTestTensor(), cstf.Options{
		Algorithm: cstf.RALS, Rank: 2, MaxIters: 2, Faults: cstf.FaultOptions{Chaos: testChaos()},
	})
	if err == nil {
		t.Fatal("rals + chaos did not fail")
	}
}
