package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
)

// resultHash is the FNV-64a hash of a result's lambda, factors and fits, the
// form every golden test in the repository pins.
func resultHash(res *cpals.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(res.Lambda)
	for _, f := range res.Factors {
		put(f.Data)
	}
	put(res.Fits)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSampledKillGoldenHash pins the killed-worker sampled run by hash: the
// same options serially are the "dist options" row of rals'
// TestSolveGoldenHash, and the run over two workers, one of them killed
// mid-solve, must land on that hash too.
func TestSampledKillGoldenHash(t *testing.T) {
	const want = "731eec5703d5d74c"
	x := plantedTensor()
	o := ralsOpts()
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	cfg.Retry = fastRetry()
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
	got, stats, err := SolveSampled(x, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WorkerDeaths == 0 {
		t.Fatalf("chaos kill never fired: %+v", stats)
	}
	if hash := resultHash(got); hash != want {
		t.Fatalf("hash %s, want %s", hash, want)
	}
}

// TestExactKillGoldenHash pins the exact Dist tier with a worker killed by
// hash: over three workers, once with a chaos NodeCrash before stage 2 and
// once with a kill while stage 2's tasks are in flight, the run must land on
// the hash of cpals.Solve with the same options.
func TestExactKillGoldenHash(t *testing.T) {
	const want = "d0e0cb0d8930ee12"
	x := plantedTensor()
	opts := solveOpts()
	serial, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hash := resultHash(serial); hash != want {
		t.Fatalf("serial hash %s, want %s", hash, want)
	}
	kills := map[string]func(c *LocalCluster, cfg *Config){
		"chaos crash": func(_ *LocalCluster, cfg *Config) {
			cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
		},
		"in-flight kill": func(c *LocalCluster, cfg *Config) {
			var once sync.Once
			cfg.AfterDispatch = func(stage uint64) {
				if stage == 2 {
					once.Do(func() { c.Kills[1]() })
				}
			}
		},
	}
	for name, arm := range kills {
		c, err := StartInProcess(3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		cfg.DisableRejoin = true
		arm(c, &cfg)
		got, stats, err := Solve(x, opts, cfg)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.WorkerDeaths != 1 || stats.Degraded {
			t.Fatalf("%s: want one death and no degradation, got %+v", name, stats)
		}
		if hash := resultHash(got); hash != want {
			t.Fatalf("%s: hash %s, want %s", name, hash, want)
		}
	}
}
