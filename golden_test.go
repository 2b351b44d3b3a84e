package cstf_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"cstf"
)

// decompositionHash is FNV-1a over the bit patterns of lambda, every factor
// (row-major) and the fit history, in that order.
func decompositionHash(d *cstf.Decomposition) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range d.Lambda {
		put(v)
	}
	for _, f := range d.Factors {
		for i := 0; i < f.Rows(); i++ {
			for j := 0; j < f.Cols(); j++ {
				put(f.At(i, j))
			}
		}
	}
	for _, v := range d.Fits {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every algorithm's output through the public API, pinned bit for bit at
// Parallelism 1 and 4: a fresh six-iteration run, and the same run resumed
// by DecomposeResume from the checkpoint written at iteration 4. The hashes
// are the fixed point of any refactor of the solvers, their options or the
// checkpoint path. A resume equals the uninterrupted run except where the
// resumed state is rebuilt in a different summation order: QCOO's rebuilt
// queue RDD (see core.NewQCOOStateFromFactors) and BigTensor's driver-side
// grams of the restored factors, so those two pin their resumed hash on its
// own. A row with a fleet also pins that the run went to its workers.
func TestDecomposeGoldenHash(t *testing.T) {
	x := apiTestTensor()
	cases := []struct {
		algo          cstf.Algorithm
		fresh, resume string // resume "" means equal to fresh
		set           func(*cstf.Options)
		fleet         int // Metrics.DistWorkers of every run
	}{
		{cstf.Serial, "cd0e7ebbb5923bfe", "", nil, 0},
		{cstf.COO, "9b4608a0ab184a45", "", nil, 0},
		{cstf.QCOO, "500270ad1bb89729", "afd280c78f0ef893", nil, 0},
		{cstf.BigTensor, "9298352897619de7", "745b600f1db56fbb", nil, 0},
		{cstf.Dist, "cd0e7ebbb5923bfe", "", func(o *cstf.Options) { o.Dist.LocalWorkers = 2 }, 2},
		{cstf.RALS, "da128133e60aad75", "", ralsGolden, 0},
		{cstf.RALS, "da128133e60aad75", "", func(o *cstf.Options) { ralsGolden(o); o.Dist.LocalWorkers = 2 }, 2},
		{cstf.NCP, "b2bb22e88cd73293", "", nil, 0},
		{cstf.NCP, "b2bb22e88cd73293", "", func(o *cstf.Options) { o.Dist.LocalWorkers = 2 }, 2},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			full := cstf.Options{
				Algorithm: c.algo, Rank: 3, MaxIters: 6, NoConvergenceCheck: true, Seed: 5, Parallelism: p,
			}
			if c.set != nil {
				c.set(&full)
			}
			fresh, err := cstf.Decompose(x, full)
			if err != nil {
				t.Fatalf("%s Parallelism %d: %v", c.algo, p, err)
			}
			if got := decompositionHash(fresh); got != c.fresh {
				t.Errorf("%s Parallelism %d fresh: hash %s, want %s", c.algo, p, got, c.fresh)
			}
			if fresh.Metrics.DistWorkers != c.fleet {
				t.Errorf("%s Parallelism %d fresh: %d workers, want %d", c.algo, p, fresh.Metrics.DistWorkers, c.fleet)
			}

			path := filepath.Join(t.TempDir(), "cp.gob")
			head := full
			head.MaxIters = 4
			head.Faults = cstf.FaultOptions{CheckpointEvery: 2, CheckpointPath: path}
			if _, err := cstf.Decompose(x, head); err != nil {
				t.Fatalf("%s Parallelism %d head: %v", c.algo, p, err)
			}
			resumed, err := cstf.DecomposeResume(x, path, full)
			if err != nil {
				t.Fatalf("%s Parallelism %d resume: %v", c.algo, p, err)
			}
			want := c.resume
			if want == "" {
				want = c.fresh
			}
			if got := decompositionHash(resumed); got != want {
				t.Errorf("%s Parallelism %d resumed: hash %s, want %s", c.algo, p, got, want)
			}
			if resumed.Metrics.DistWorkers != c.fleet {
				t.Errorf("%s Parallelism %d resumed: %d workers, want %d", c.algo, p, resumed.Metrics.DistWorkers, c.fleet)
			}
		}
	}
}

// ralsGolden sets the RALS options of the golden table.
func ralsGolden(o *cstf.Options) { o.RALS = cstf.RALSOptions{SampleFraction: 0.3, ResampleEvery: 2} }
