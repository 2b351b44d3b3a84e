package cstf_test

import (
	"path/filepath"
	"testing"

	"cstf"
)

// Nonnegative CP through the public API: the "ncp" tier returns nonnegative
// factors, resumes bitwise from its checkpoints, and rejects foreign ones.

func TestNCPDecomposePublicAPI(t *testing.T) {
	x := apiTestTensor()
	dec, err := cstf.Decompose(x, cstf.Options{
		Algorithm: cstf.NCP, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Iters != 6 {
		t.Fatalf("Iters=%d, want 6", dec.Iters)
	}
	for n, f := range dec.Factors {
		for i := 0; i < f.Rows(); i++ {
			for j := 0; j < f.Cols(); j++ {
				if f.At(i, j) < 0 {
					t.Fatalf("factor %d (%d,%d) = %v, want >= 0", n, i, j, f.At(i, j))
				}
			}
		}
	}
	for i := 1; i < len(dec.Fits); i++ {
		if dec.Fits[i] < dec.Fits[i-1] {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, dec.Fits[i-1], dec.Fits[i])
		}
	}
}

// Mid-solve checkpoint, resume via the public API: the resumed run must be
// bitwise identical to the uninterrupted one — the checkpoint carries the
// inner pass count, and with it the factors fully determine the trajectory.
func TestNCPResumeMatchesUninterrupted(t *testing.T) {
	x := apiTestTensor()
	path := filepath.Join(t.TempDir(), "cp.gob")
	full := cstf.Options{
		Algorithm: cstf.NCP, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 5,
		NTF: cstf.NTFOptions{InnerIters: 2},
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

// A non-ncp checkpoint must not resume as ncp (and vice versa an ncp
// checkpoint announces its algorithm, so cpals rejects it by name).
func TestNCPResumeRejectsForeignCheckpoint(t *testing.T) {
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
		Algorithm: cstf.NCP, Rank: 3, MaxIters: 4,
	}); err == nil {
		t.Fatal("ncp resume from a serial checkpoint did not fail")
	}

	ncpHead := cstf.Options{
		Algorithm: cstf.NCP, Rank: 3, MaxIters: 2, NoConvergenceCheck: true, Seed: 5,
		Faults: cstf.FaultOptions{CheckpointEvery: 1, CheckpointPath: path},
	}
	if _, err := cstf.Decompose(x, ncpHead); err != nil {
		t.Fatal(err)
	}
	if _, err := cstf.DecomposeResume(x, path, cstf.Options{
		Algorithm: cstf.Serial, Rank: 3, MaxIters: 4,
	}); err == nil {
		t.Fatal("serial resume from an ncp checkpoint did not fail")
	}
}

// Chaos injection models distributed faults; on the shared-memory ncp
// solver it is a contradiction and must error, like Serial and RALS.
func TestNCPChaosRejected(t *testing.T) {
	_, err := cstf.Decompose(apiTestTensor(), cstf.Options{
		Algorithm: cstf.NCP, Rank: 2, MaxIters: 2, Faults: cstf.FaultOptions{Chaos: testChaos()},
	})
	if err == nil {
		t.Fatal("ncp + chaos did not fail")
	}
}
