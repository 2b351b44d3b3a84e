package main

import (
	"fmt"
	"math"
	"time"

	"cstf"
)

// tensorSpec is a generated training tensor: Zipf-skewed when zipfTheta is
// set, otherwise a planted low-rank model sampled at random coordinates.
type tensorSpec struct {
	nnz         int
	dims        []int
	zipfTheta   float64
	plantedRank int
	noise       float64
}

func (s tensorSpec) public(seed uint64) *cstf.Tensor {
	if s.zipfTheta > 0 {
		return cstf.ZipfTensor(seed, s.nnz, s.zipfTheta, s.dims...)
	}
	return cstf.LowRankTensor(seed, s.nnz, s.plantedRank, s.noise, s.dims...)
}

// recsysSpec is the serve-stream input: a recommender tensor of which
// windows*perWindow nonzeros are held back as the update stream.
type recsysSpec struct {
	nnz, users, items, contexts, groups int
	noise                               float64
	windows, perWindow                  int
}

// workload is one set of inputs and the operation run on it. Every
// workload is the same path at a different shape — generate, train with one
// Decompose call, serve the trained model, query it cold (and, traced, hot)
// — and serve-stream adds updates beside the reads.
type workload struct {
	name string
	why  string

	tensor tensorSpec // training workloads
	recsys recsysSpec // serve-stream
	stream bool       // serve-stream: checkpointed model, update phase
	dist   bool       // train over P in-process workers
	shadow bool       // traced run re-runs the solve as the shadow ALS loop

	rank int
	// calls is how many times a run repeats set-up and the Decompose call,
	// each in a process of its own; the run reports the mean of their
	// times. On the reference host a solve's speed depends on which
	// physical memory its process was handed — one draw per process, two
	// outcomes a third apart (README, "What the first measurements
	// found") — so one call per run measures the draw as much as the code,
	// and a median of a few draws is still one outcome or the other.
	// als4-tall's large arrays average the draw out by themselves, and its
	// first four iterations alone take twelve seconds: one call.
	calls int
	// itersPerSecond turns the -seconds budget into the iteration count of
	// one call, so a run at a given -seconds always does the same work.
	// fixedIters overrides it.
	itersPerSecond float64
	fixedIters     int
	// Shares of -seconds given to the query phases.
	coldShare, hotShare, updShare float64
}

var zipf3 = tensorSpec{nnz: 2_000_000, dims: []int{40000, 30000, 20000}, zipfTheta: 0.7}

var workloads = []workload{
	{
		name:   "als3-zipf",
		why:    "order-3 heavy-tailed tensor, rank 16, Serial: MTTKRP is nearly all of an iteration, so layout and kernel work shows here",
		tensor: zipf3, rank: 16, shadow: true, calls: 5,
		itersPerSecond: 0.15, coldShare: 0.125, hotShare: 0.1,
	},
	{
		name:   "als4-tall",
		why:    "hyper-sparse order-4 tensor, tall factors at rank 64, Serial: dense algebra is almost half the solve and CSF loses to COO, the bypass for MTTKRP work",
		tensor: tensorSpec{nnz: 300_000, dims: []int{120000, 80000, 60000, 40000}, plantedRank: 8, noise: 0.1},
		rank:   64, shadow: true, calls: 1,
		itersPerSecond: 0.5, coldShare: 0.125, hotShare: 0.1,
	},
	{
		name:   "dist2-zipf3",
		why:    "the als3-zipf problem over P loopback workers: partition, shard shipping, delta broadcast and reduce; ratio to als3-zipf is the speed-up",
		tensor: zipf3, rank: 16, dist: true, calls: 4,
		itersPerSecond: 0.3, coldShare: 0.125, hotShare: 0.1,
	},
	{
		name:   "serve-stream",
		why:    "recommender model served over HTTP: scan-bound cold reads, cache-bound hot reads, then open-loop reads while stream windows update and reload it",
		recsys: recsysSpec{nnz: 1_030_000, users: 60000, items: 40000, contexts: 24, groups: 16, noise: 0.05, windows: 30, perWindow: 1000},
		stream: true, rank: 16, calls: 6, fixedIters: 5,
		coldShare: 0.2, hotShare: 0.1, updShare: 0.4,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Fixed load parameters (the issue's numbers).
const (
	hotUsers     = 512         // hot-phase rows: fewer than the result cache holds
	windowEvery  = time.Second // one stream window is due this often
	updRate      = 300.0       // open-loop queries per second in the update phase
	refIters     = 3           // dist-vs-serial reference solve
	shadowIters  = 10          // cap on the traced solves
	setupReps    = 3           // set-up is repeated; setup_s is the median
	probeQueries = 300         // traced single-caller probes per path
)

// sizes is a workload resolved against -seconds (or the smoke preset).
type sizes struct {
	calls          int
	iters          int
	cold, hot, upd time.Duration
	windows        int
	windowEvery    time.Duration
	updRate        float64
	probes         int
}

// smoke shrinks a workload to a fraction of a second. It is the only place
// tensor shapes change; it exists so `go test` keeps the benchmark's code
// and checks alive, and measures nothing.
func (w workload) smoke() workload {
	switch {
	case w.stream:
		w.recsys = recsysSpec{nnz: 21_000, users: 600, items: 400, contexts: 6, groups: 4, noise: 0.05, windows: 4, perWindow: 250}
	case w.tensor.zipfTheta > 0:
		w.tensor = tensorSpec{nnz: 20_000, dims: []int{400, 300, 200}, zipfTheta: 0.7}
	default:
		w.tensor = tensorSpec{nnz: 5_000, dims: []int{1200, 800, 600, 400}, plantedRank: 4, noise: 0.1}
	}
	w.rank = min(w.rank, 8)
	return w
}

func (w workload) sizes(seconds float64, smoke, trace bool) sizes {
	if smoke {
		s := sizes{calls: 1, iters: 4, cold: 200 * time.Millisecond, hot: 100 * time.Millisecond,
			windowEvery: 100 * time.Millisecond, updRate: 100, probes: 20}
		if w.stream {
			s.windows = w.recsys.windows
			s.upd = time.Duration(s.windows) * s.windowEvery
		}
		return s
	}
	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	s := sizes{
		calls: w.calls,
		iters: max(w.fixedIters, int(math.Round(w.itersPerSecond*seconds)), refIters),
		cold:  dur(w.coldShare), hot: dur(w.hotShare), upd: dur(w.updShare),
		windowEvery: windowEvery, updRate: updRate, probes: probeQueries,
	}
	if w.shadow && trace {
		// The traced run solves once publicly, then once per kernel as the
		// shadow loop, all at the same iteration count.
		s.calls, s.iters = 1, shadowIters
	}
	if w.stream {
		s.windows = min(int(s.upd/windowEvery), w.recsys.windows)
	}
	return s
}

// ---- set-up -----------------------------------------------------------

// input is what set-up hands to the timed sections.
type input struct {
	x      *cstf.Tensor
	recsys recsysInput
	addrs  []string
	stop   func() // stops the dist workers
}

func (in *input) close() {
	if in != nil && in.stop != nil {
		in.stop()
		in.stop = nil
	}
}

// setup generates the workload's inputs from the seed and launches what
// the operation needs; it returns them with the time it took.
func (w workload) setup(seed uint64, p int) (*input, float64, error) {
	t0 := time.Now()
	in := &input{}
	if w.stream {
		in.recsys = genRecsysStream(w.recsys, seed)
		in.x = in.recsys.public
	} else {
		in.x = w.tensor.public(seed)
	}
	if w.dist {
		addrs, stop, err := startWorkers(p)
		if err != nil {
			return nil, 0, fmt.Errorf("start workers: %w", err)
		}
		in.addrs, in.stop = addrs, stop
	}
	return in, time.Since(t0).Seconds(), nil
}

// ---- train ------------------------------------------------------------

// trained is one timed Decompose call.
type trained struct {
	dec    *cstf.Decomposition
	wall   float64   // seconds, the whole call
	first  float64   // seconds from the call to the first OnIteration
	gapsMS []float64 // between consecutive OnIteration callbacks
}

// train runs the workload's operation through the public API with defaults
// for everything the issue does not fix.
func train(x *cstf.Tensor, algo cstf.Algorithm, rank, iters int, seed uint64, p int, addrs []string) (*trained, error) {
	tr := &trained{}
	var last time.Time
	start := time.Now()
	dec, err := cstf.Decompose(x, cstf.Options{
		Algorithm:          algo,
		Rank:               rank,
		MaxIters:           iters,
		NoConvergenceCheck: true,
		Seed:               seed,
		Parallelism:        p,
		Dist:               cstf.DistOptions{Addrs: addrs},
		OnIteration: func(it int, _ float64) bool {
			now := time.Now()
			if it == 0 {
				tr.first = now.Sub(start).Seconds()
			} else {
				tr.gapsMS = append(tr.gapsMS, float64(now.Sub(last).Nanoseconds())/1e6)
			}
			last = now
			return false
		},
	})
	tr.wall = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	tr.dec = dec
	return tr, nil
}

func (w workload) algorithm() cstf.Algorithm {
	if w.dist {
		return cstf.Dist
	}
	return cstf.Serial
}
