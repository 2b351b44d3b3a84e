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
	got, stats, err := solveSampled(x, o, cfg)
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

// TestExactKillGoldenHash pins the exact tiers with a worker killed by
// hash: for the least-squares update and the nonnegative one, over three
// workers, once with a chaos NodeCrash before stage 2 and once with a kill
// while stage 2's tasks are in flight, the run must land on the hash of
// cpals.SolveWith with the same update locally.
func TestExactKillGoldenHash(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	nonneg := cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: 3}}
	updates := []struct {
		name, want string
		u          cpals.Update
	}{
		{"least squares", "d0e0cb0d8930ee12", cpals.Update{}},
		{"nonnegative", "80b5b24efbff1ab9", nonneg},
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
	for _, up := range updates {
		serial, err := cpals.SolveWith(x, opts, up.u)
		if err != nil {
			t.Fatal(err)
		}
		if hash := resultHash(serial); hash != up.want {
			t.Fatalf("%s: serial hash %s, want %s", up.name, hash, up.want)
		}
		for name, arm := range kills {
			c, err := StartInProcess(3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.Config()
			cfg.DisableRejoin = true
			arm(c, &cfg)
			got, stats, err := Solve(x, opts, up.u, cfg)
			c.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", up.name, name, err)
			}
			if stats.WorkerDeaths != 1 || stats.Degraded {
				t.Fatalf("%s %s: want one death and no degradation, got %+v", up.name, name, stats)
			}
			if hash := resultHash(got); hash != up.want {
				t.Fatalf("%s %s: hash %s, want %s", up.name, name, hash, up.want)
			}
		}
	}
}
