package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/tensor"
)

// Fault-tolerance benchmark for the real distributed runtime: the same
// planted CP-ALS problem is solved clean, then once per failure mode —
// worker crash, network partition with rejoin, CRC-rejected frame
// corruption, total fleet collapse with coordinator-local degradation,
// coordinator SIGKILL with checkpoint resume, and a torn checkpoint with
// retained-version fallback. Every row is MEASURED wall clock on real
// loopback sockets, and every row is checked bitwise against the serial
// reference: recovery is only recovery if the answer is the same answer.
//
// "Time to recover" is reported as the extra wall clock a faulted run paid
// relative to the unfaulted baseline of the same configuration — the
// end-to-end price of the failure, which is what an operator actually
// waits out (detection + rejoin/resume + recomputation).

// FaultsBenchConfig sizes the fault benchmark; tests shrink it.
type FaultsBenchConfig struct {
	Dims      []int   // planted tensor shape
	NNZ       int     // nonzeros
	TrueRank  int     // planted rank
	Rank      int     // decomposition rank (0 = Params.Rank)
	Noise     float64 // additive noise level
	GenSeed   uint64  // tensor generator seed
	Iters     int     // ALS iterations
	Workers   int     // worker fleet size
	KillAfter int     // iteration the coordinator "dies" at (resume rows)
	Dir       string  // scratch directory for checkpoint files ("" = temp)
}

// DefaultFaultsBenchConfig returns the results/BENCH_faults.json sizing.
func DefaultFaultsBenchConfig() FaultsBenchConfig {
	return FaultsBenchConfig{
		Dims:      []int{300, 250, 200},
		NNZ:       150000,
		TrueRank:  4,
		Rank:      8,
		Noise:     0.05,
		GenSeed:   17,
		Iters:     14,
		Workers:   2,
		KillAfter: 7,
	}
}

// FaultsRow is one failure scenario's measurements.
type FaultsRow struct {
	Scenario string `json:"scenario"`
	// WallMs is end-to-end wall clock; for resume scenarios it includes
	// both the interrupted run and the resumed run.
	WallMs float64 `json:"wall_ms"`
	// RecoverMs is WallMs minus the baseline row's WallMs (clamped at 0):
	// the measured time-to-recover paid for the injected failure.
	RecoverMs     float64 `json:"recover_ms"`
	WorkerDeaths  int     `json:"worker_deaths,omitempty"`
	Rejoins       int     `json:"rejoins,omitempty"`
	CorruptFrames int     `json:"corrupt_frames,omitempty"`
	Degraded      bool    `json:"degraded,omitempty"`
	Resumed       bool    `json:"resumed,omitempty"`
	Fit           float64 `json:"fit"`
	Bitwise       bool    `json:"bitwise"`
}

// FaultsReport is the machine-readable result (results/BENCH_faults.json).
type FaultsReport struct {
	Dims    []int       `json:"dims"`
	NNZ     int         `json:"nnz"`
	Rank    int         `json:"rank"`
	Iters   int         `json:"iters"`
	Workers int         `json:"workers"`
	Rows    []FaultsRow `json:"rows"`
	// AllExact: every faulted row still matched the serial reference bit
	// for bit.
	AllExact bool `json:"all_bitwise_equal"`
}

// errSimKill aborts a head run at a checkpoint boundary, standing in for a
// coordinator SIGKILL that lands right after a durable checkpoint write.
var errSimKill = errors.New("experiments: simulated coordinator kill")

// loopbackRetry is the redial policy for the bench's loopback fleets.
func loopbackRetry() dist.RetryPolicy {
	return dist.RetryPolicy{
		MaxAttempts: 6,
		Base:        2 * time.Millisecond,
		Max:         50 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// FaultsBenchWith generates the planted tensor, solves it serially for the
// bitwise reference, then replays the failure-scenario matrix against real
// TCP loopback workers.
func FaultsBenchWith(p Params, cfg FaultsBenchConfig) (*FaultsReport, error) {
	rank := cfg.Rank
	if rank == 0 {
		rank = p.Rank
	}
	if rank < 2 {
		rank = 2
	}
	dir := cfg.Dir
	if dir == "" {
		td, err := os.MkdirTemp("", "cstf-faults-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(td)
		dir = td
	}
	x := tensor.GenLowRank(cfg.GenSeed, cfg.NNZ, cfg.TrueRank, cfg.Noise, cfg.Dims...)
	opts := cpals.Options{Rank: rank, MaxIters: cfg.Iters, Seed: p.Seed}

	rep := &FaultsReport{
		Dims: cfg.Dims, NNZ: x.NNZ(), Rank: rank,
		Iters: cfg.Iters, Workers: cfg.Workers, AllExact: true,
	}

	benchSettle()
	reference, err := cpals.Solve(x, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: faults bench serial solve failed: %w", err)
	}

	// distRun solves once over a fresh in-process fleet.
	distRun := func(mut func(*dist.Config)) (*cpals.Result, dist.Stats, error) {
		benchSettle()
		lc, err := dist.StartInProcess(cfg.Workers)
		if err != nil {
			return nil, dist.Stats{}, err
		}
		defer lc.Close()
		dc := lc.Config()
		// Loopback reconnects are instant; the default WAN-sized backoff
		// would dominate the measured recovery time.
		dc.Retry = loopbackRetry()
		if mut != nil {
			mut(&dc)
		}
		return dist.Solve(x, opts, cpals.Update{}, dc)
	}

	var baselineMs float64
	addRow := func(scenario string, res *cpals.Result, st dist.Stats, wallMs float64) {
		row := FaultsRow{
			Scenario:      scenario,
			WallMs:        wallMs,
			WorkerDeaths:  st.WorkerDeaths,
			Rejoins:       st.Rejoins,
			CorruptFrames: st.CorruptFrames,
			Degraded:      st.Degraded,
			Fit:           res.Fit(),
			Bitwise:       bitwiseEqual(reference, res),
		}
		if scenario == "baseline" {
			baselineMs = wallMs
		} else if wallMs > baselineMs {
			row.RecoverMs = wallMs - baselineMs
		}
		if !row.Bitwise {
			rep.AllExact = false
		}
		rep.Rows = append(rep.Rows, row)
	}

	type faultCase struct {
		scenario string
		mut      func(*dist.Config)
	}
	cases := []faultCase{
		{"baseline", nil},
		{"worker-crash", func(dc *dist.Config) {
			dc.Plan = chaos.NewPlanFromEvents(
				chaos.Event{Kind: chaos.NodeCrash, Node: cfg.Workers / 2, Stage: 2})
		}},
		{"partition-rejoin", func(dc *dist.Config) {
			dc.Plan = chaos.NewPlanFromEvents(
				chaos.Event{Kind: chaos.NetPartition, Node: cfg.Workers - 1, Stage: 2})
		}},
		{"frame-corrupt", func(dc *dist.Config) {
			dc.Plan = chaos.NewPlanFromEvents(
				chaos.Event{Kind: chaos.FrameCorrupt, Node: 0, Stage: 2})
		}},
		{"fleet-collapse-degrade", func(dc *dist.Config) {
			var evs []chaos.Event
			for n := 0; n < cfg.Workers; n++ {
				evs = append(evs, chaos.Event{Kind: chaos.NodeCrash, Node: n, Stage: 2})
			}
			dc.Plan = chaos.NewPlanFromEvents(evs...)
			dc.DisableRejoin = true // the processes are dead; don't redial
		}},
	}
	for _, fc := range cases {
		start := time.Now()
		res, st, err := distRun(fc.mut)
		if err != nil {
			return nil, fmt.Errorf("experiments: faults bench scenario %s failed: %w", fc.scenario, err)
		}
		addRow(fc.scenario, res, st, time.Since(start).Seconds()*1e3)
	}

	for _, torn := range []bool{false, true} {
		scenario := "kill-resume"
		if torn {
			scenario = "torn-checkpoint-fallback"
		}
		res, st, wallMs, err := killResumeRun(x, opts, cfg, dir, scenario, torn)
		if err != nil {
			return nil, err
		}
		row := FaultsRow{
			Scenario:      scenario,
			WallMs:        wallMs,
			WorkerDeaths:  st.WorkerDeaths,
			Rejoins:       st.Rejoins,
			CorruptFrames: st.CorruptFrames,
			Degraded:      st.Degraded,
			Resumed:       true,
			Fit:           res.Fit(),
			Bitwise:       bitwiseEqual(reference, res),
		}
		if wallMs > baselineMs {
			row.RecoverMs = wallMs - baselineMs
		}
		if !row.Bitwise {
			rep.AllExact = false
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// killResumeRun interrupts a checkpointing distributed solve right after
// the KillAfter-th checkpoint lands (the moment a SIGKILL hurts most: state
// durable, process gone), optionally tears the live checkpoint file in
// half, then resumes over a brand-new fleet — falling back to the newest
// retained version when the live file is corrupt. The returned result is
// the resumed run's; wall clock covers both runs plus the recovery itself.
func killResumeRun(x *tensor.COO, opts cpals.Options, cfg FaultsBenchConfig, dir, scenario string, torn bool) (*cpals.Result, dist.Stats, float64, error) {
	path := filepath.Join(dir, scenario+".ckpt")
	start := time.Now()

	headOpts := opts
	headOpts.CheckpointEvery = 1
	headOpts.OnCheckpoint = checkpointHook(path, cfg)

	lc, err := dist.StartInProcess(cfg.Workers)
	if err != nil {
		return nil, dist.Stats{}, 0, err
	}
	_, _, err = dist.Solve(x, headOpts, cpals.Update{}, lc.Config())
	lc.Close()
	if !errors.Is(err, errSimKill) {
		return nil, dist.Stats{}, 0, fmt.Errorf("experiments: %s head run: want simulated kill, got %v", scenario, err)
	}

	if torn {
		if err := tearInHalf(path); err != nil {
			return nil, dist.Stats{}, 0, err
		}
	}

	cp, err := ckpt.Read(path)
	var ce *ckpt.CorruptError
	switch {
	case err == nil:
		if torn {
			return nil, dist.Stats{}, 0, fmt.Errorf("experiments: %s: torn checkpoint read cleanly", scenario)
		}
	case errors.As(err, &ce):
		// The live file is torn; recover from the newest retained version.
		vs, verr := ckpt.ListVersions(path)
		if verr != nil || len(vs) == 0 {
			return nil, dist.Stats{}, 0, fmt.Errorf("experiments: %s: no retained versions after corruption: %v", scenario, verr)
		}
		cp, err = ckpt.Read(ckpt.VersionPath(path, vs[len(vs)-1]))
		if err != nil {
			return nil, dist.Stats{}, 0, fmt.Errorf("experiments: %s: retained version unreadable: %w", scenario, err)
		}
	default:
		return nil, dist.Stats{}, 0, err
	}

	tailOpts := opts
	tailOpts.Restore(cp)

	lc, err = dist.StartInProcess(cfg.Workers)
	if err != nil {
		return nil, dist.Stats{}, 0, err
	}
	defer lc.Close()
	res, st, err := dist.Solve(x, tailOpts, cpals.Update{}, lc.Config())
	if err != nil {
		return nil, dist.Stats{}, 0, fmt.Errorf("experiments: %s resume failed: %w", scenario, err)
	}
	return res, st, time.Since(start).Seconds() * 1e3, nil
}

// checkpointHook writes every checkpoint durably, retains the previous
// generation beside it (ckpt version files), and simulates the coordinator
// dying immediately after the KillAfter-th write.
func checkpointHook(path string, cfg FaultsBenchConfig) func(*ckpt.File) error {
	return func(cp *ckpt.File) error {
		cp.Algorithm, cp.Workers = "dist", cfg.Workers
		if err := ckpt.Write(path, cp); err != nil {
			return err
		}
		if err := ckpt.Write(ckpt.VersionPath(path, cp.Iter), cp); err != nil {
			return err
		}
		if cp.Iter >= cfg.KillAfter {
			return errSimKill
		}
		return nil
	}
}

// tearInHalf truncates a file to half its size — the classic torn write a
// power cut leaves behind.
func tearInHalf(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()/2)
}

// RenderFaultsBench formats the report for terminals.
func RenderFaultsBench(r *FaultsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance (real TCP runtime, %v nnz=%d rank=%d iters=%d workers=%d)\n",
		r.Dims, r.NNZ, r.Rank, r.Iters, r.Workers)
	fmt.Fprintf(&b, "%-26s %10s %11s %7s %8s %8s %5s %8s\n",
		"scenario", "wall ms", "recover ms", "deaths", "rejoins", "corrupt", "fit", "bitwise")
	for _, row := range r.Rows {
		notes := ""
		if row.Degraded {
			notes = " (degraded)"
		}
		if row.Resumed {
			notes += " (resumed)"
		}
		fmt.Fprintf(&b, "%-26s %10.1f %11.1f %7d %8d %8d %5.3f %8v%s\n",
			row.Scenario, row.WallMs, row.RecoverMs, row.WorkerDeaths,
			row.Rejoins, row.CorruptFrames, row.Fit, row.Bitwise, notes)
	}
	fmt.Fprintf(&b, "all bitwise-identical to serial: %v\n", r.AllExact)
	return b.String()
}
