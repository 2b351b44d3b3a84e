package dist

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/tensor"
)

// gatherTouched is the communication plan as a second Perm gather over
// every (mode, nonzero) pair that only sets bits: the factor rows each
// worker's shards read.
func gatherTouched(x *tensor.COO, ranges [][]tensor.NNZRange, W int) [][]bitset {
	order := x.Order()
	touched := make([][]bitset, W)
	for k := range touched {
		touched[k] = make([]bitset, order)
		for m := range touched[k] {
			touched[k][m] = newBitset(x.Dims[m])
		}
	}
	for mm := 0; mm < order; mm++ {
		mi := x.ModeIndex(mm)
		for k, rg := range ranges[mm] {
			for p := rg.Lo; p < rg.Hi; p++ {
				e := &x.Entries[mi.Perm[p]]
				for m := 0; m < order; m++ {
					if m != mm {
						touched[k][m].set(int(e.Idx[m]))
					}
				}
			}
		}
	}
	return touched
}

// The touched-row sets the fused encode pass leaves behind — live and frozen
// — must equal the gather's bit for bit at every worker count, on a tensor
// whose first mode is long and whose others are short.
func TestFusedTouchedSetsEqualGather(t *testing.T) {
	x := tensor.GenZipf(5, 20000, 0.7, 9000, 300, 40)
	for _, W := range []int{1, 2, 4} {
		c, err := StartInProcess(W)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(x, 3, c.Config())
		if err != nil {
			t.Fatal(err)
		}
		ranges := make([][]tensor.NNZRange, x.Order())
		for m := range ranges {
			ranges[m] = x.ModeIndex(m).Ranges(W)
		}
		s.shipShards(ranges)
		want := gatherTouched(x, ranges, W)
		for k, r := range s.remotes {
			if !reflect.DeepEqual(r.touched, want[k]) || !reflect.DeepEqual(s.frozen[k], want[k]) {
				t.Errorf("%d workers: slot %d touched sets differ from the gather's", W, k)
			}
			for m := range ranges {
				if k < len(ranges[m]) && r.shards[shardKey{m, ranges[m][k].RowLo, ranges[m][k].RowHi}] != x {
					t.Errorf("%d workers: slot %d mode %d shard not recorded resident", W, k, m)
				}
			}
		}
		if s.stats.ShardBytes == 0 {
			t.Errorf("%d workers: no shard bytes counted", W)
		}
		s.Close()
		c.Close()
	}
}

// The coordinator phases partition the call: on a two-worker in-process
// solve of either tier they sum to WallSeconds (within 5 % — what lies
// outside the laps is reading the counters), none is negative, and the
// phases each tier passes through all show.
func TestPhasesSumToWall(t *testing.T) {
	x := tensor.GenZipf(3, 200000, 0.7, 4000, 3000, 2000)
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opts := solveOpts()
	opts.Rank = 8
	_, exact, err := Solve(x, opts, cpals.Update{}, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	ro := ralsOpts()
	ro.Options = opts
	_, sampled, err := solveSampled(x, ro, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name  string
		stats Stats
		shown []string
	}{
		{"Solve", exact, []string{"connect", "partition", "shard-ship", "factor-init", "mttkrp-wait", "factor-update", "local"}},
		{"sampled", sampled, []string{"connect", "partition", "factor-init", "mttkrp-wait", "factor-update", "local"}},
	} {
		var sum float64
		byName := map[string]float64{}
		for _, p := range tier.stats.Phases.List() {
			if p.Seconds < 0 {
				t.Errorf("%s: phase %s is negative: %g", tier.name, p.Name, p.Seconds)
			}
			sum += p.Seconds
			byName[p.Name] = p.Seconds
		}
		if wall := tier.stats.WallSeconds; math.Abs(sum-wall) > 0.05*wall {
			t.Errorf("%s: phases sum to %.4f s, wall is %.4f s: %+v", tier.name, sum, wall, tier.stats.Phases)
		}
		for _, name := range tier.shown {
			if byName[name] <= 0 {
				t.Errorf("%s: phase %s recorded no time: %+v", tier.name, name, tier.stats.Phases)
			}
		}
	}
}

// Solve + LocalCluster.Close must leave no goroutine behind: not the
// per-worker reader/writer/heartbeat trio, not the pool that encodes shards
// at session start, not a rejoin loop — after a clean run, a run with a
// worker killed in flight, and a run with a partitioned worker that rejoins.
func TestSolveLeavesNoGoroutines(t *testing.T) {
	x := plantedTensor()
	runs := map[string]func(c *LocalCluster, cfg *Config){
		"clean": func(*LocalCluster, *Config) {},
		"killed worker": func(c *LocalCluster, cfg *Config) {
			var once sync.Once
			cfg.AfterDispatch = func(stage uint64) {
				if stage == 2 {
					once.Do(func() { c.Kills[1]() })
				}
			}
		},
		"rejoin": func(_ *LocalCluster, cfg *Config) {
			cfg.Retry = fastRetry()
			cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NetPartition, Node: 1, Stage: 2})
		},
	}
	for name, arm := range runs {
		base := runtime.NumGoroutine()
		c, err := StartInProcess(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		arm(c, &cfg)
		opts := solveOpts()
		opts.MaxIters = 40
		if _, _, err := Solve(x, opts, cpals.Update{}, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Close()
		// Goroutines unwind after the calls that stop them return (a reader
		// sees its closed socket, a worker its closed listener): poll.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // a poll interval, not a wait for an event
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before, %d after Solve + Close:\n%s", name, base, n, buf[:runtime.Stack(buf, true)])
		}
	}
}
