package experiments

import (
	"fmt"
	"strings"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// Randomized-ALS benchmark: exact CP-ALS vs leverage-score-sampled ALS
// (internal/rals) on the compute-regime tensor, across sample budgets. Every
// row's fit is the EXACT fit over the full tensor — the sampling only ever
// accelerates the solves, never the evaluation — so fit_vs_exact compares
// like with like. The report also re-runs one sampled configuration twice
// serially and once over real TCP workers, checking both repeats bitwise:
// the table doubles as the determinism acceptance test at benchmark scale.

// RALSBenchConfig sizes the randomized-ALS benchmark; tests shrink it.
type RALSBenchConfig struct {
	Dims      []int   // planted tensor shape
	NNZ       int     // nonzeros
	TrueRank  int     // planted rank
	Rank      int     // decomposition rank (0 = Params.Rank)
	Block     int     // dense-block side (GenBlockSparse); 0 = GenLowRank
	Noise     float64 // additive noise level
	GenSeed   uint64  // tensor generator seed
	Iters     int     // ALS iterations (sampled runs use the same count)
	Fractions []float64
	Resample  int // sampled-run epoch length (iterations per redraw)
	Polish    int // sampled-run trailing exact iterations
	// DistWorkers, when > 0, re-runs the first acceptable sampled row over
	// that many real TCP loopback workers and checks it bitwise.
	DistWorkers int
	// MinFitRatio/MaxTimeRatio define "acceptable" (0 selects the report
	// bar: >= 0.99 of the exact fit in <= 0.5x the exact wall time). Tests
	// loosen the time bar, which is meaningless at toy sizes.
	MinFitRatio  float64
	MaxTimeRatio float64
}

// DefaultRALSBenchConfig returns the report sizing: the compute-regime
// tensor of the distributed benchmark, swept over sample fractions with a
// short exact polish.
func DefaultRALSBenchConfig() RALSBenchConfig {
	d := ComputeDistBenchConfig()
	return RALSBenchConfig{
		Dims:        d.Dims,
		NNZ:         d.NNZ,
		TrueRank:    d.TrueRank,
		Rank:        d.Rank,
		Block:       d.Block,
		Noise:       d.Noise,
		GenSeed:     d.GenSeed,
		Iters:       d.Iters,
		Fractions:   []float64{0.02, 0.05, 0.10, 0.15},
		Resample:    5,
		Polish:      6,
		DistWorkers: 4,
	}
}

// RALSRow is one configuration's measurements.
type RALSRow struct {
	Exact            bool    `json:"exact,omitempty"` // the exact CP-ALS reference row
	SampleFraction   float64 `json:"sample_fraction,omitempty"`
	ResampleEvery    int     `json:"resample_every,omitempty"`
	ExactFinishIters int     `json:"exact_finish_iters,omitempty"`
	WallMs           float64 `json:"wall_ms"`
	Fit              float64 `json:"fit"`
	FitVsExact       float64 `json:"fit_vs_exact"`
	TimeVsExact      float64 `json:"time_vs_exact"`
}

// RALSReport is the machine-readable result (results/BENCH_rals.json).
type RALSReport struct {
	Dims  []int     `json:"dims"`
	NNZ   int       `json:"nnz"`
	Rank  int       `json:"rank"`
	Iters int       `json:"iters"`
	Block int       `json:"block,omitempty"`
	Rows  []RALSRow `json:"rows"`
	// AcceptedFraction is the smallest swept fraction reaching >= 0.99 of
	// the exact fit in <= 0.5x the exact wall time (0 when none did).
	AcceptedFraction float64 `json:"accepted_fraction,omitempty"`
	// BitwiseRepeat: re-running the accepted configuration with the same
	// seed reproduced the factors bit for bit.
	BitwiseRepeat bool `json:"bitwise_repeat"`
	// BitwiseDist: the accepted configuration over DistWorkers real TCP
	// workers matched the serial sampled run bit for bit.
	BitwiseDist bool `json:"bitwise_dist"`
	DistWorkers int  `json:"dist_workers,omitempty"`
}

// RALSBenchWith generates the planted tensor, solves it exactly, then once
// per sample fraction, and re-runs the first acceptable sampled row for the
// bitwise repeat and distributed checks.
func RALSBenchWith(p Params, cfg RALSBenchConfig) (*RALSReport, error) {
	rank := cfg.Rank
	if rank == 0 {
		rank = p.Rank
	}
	if rank < 2 {
		rank = 2
	}
	var x *tensor.COO
	if cfg.Block > 0 {
		x = tensor.GenBlockSparse(cfg.GenSeed, cfg.NNZ, cfg.TrueRank, cfg.Block, cfg.Noise, cfg.Dims...)
	} else {
		x = tensor.GenLowRank(cfg.GenSeed, cfg.NNZ, cfg.TrueRank, cfg.Noise, cfg.Dims...)
	}
	rep := &RALSReport{Dims: cfg.Dims, NNZ: x.NNZ(), Rank: rank, Iters: cfg.Iters, Block: cfg.Block}
	minFit, maxTime := cfg.MinFitRatio, cfg.MaxTimeRatio
	if minFit == 0 {
		minFit = 0.99
	}
	if maxTime == 0 {
		maxTime = 0.5
	}

	benchSettle()
	start := time.Now()
	exact, err := cpals.Solve(x, cpals.Options{Rank: rank, MaxIters: cfg.Iters, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: rals bench exact solve failed: %w", err)
	}
	exactMs := time.Since(start).Seconds() * 1e3
	rep.Rows = append(rep.Rows, RALSRow{
		Exact: true, WallMs: exactMs, Fit: exact.Fit(), FitVsExact: 1, TimeVsExact: 1,
	})

	ralsOpts := func(frac float64) rals.Options {
		return rals.Options{
			Options:          cpals.Options{Rank: rank, MaxIters: cfg.Iters, Seed: p.Seed},
			SampleFraction:   frac,
			ResampleEvery:    cfg.Resample,
			ExactFinishIters: cfg.Polish,
			FinalFitOnly:     true,
		}
	}

	var accepted *cpals.Result
	for _, frac := range cfg.Fractions {
		benchSettle()
		start = time.Now()
		res, err := rals.Solve(x, ralsOpts(frac))
		if err != nil {
			return nil, fmt.Errorf("experiments: rals bench at fraction %g failed: %w", frac, err)
		}
		wallMs := time.Since(start).Seconds() * 1e3
		row := RALSRow{
			SampleFraction:   frac,
			ResampleEvery:    cfg.Resample,
			ExactFinishIters: cfg.Polish,
			WallMs:           wallMs,
			Fit:              res.Fit(),
			FitVsExact:       res.Fit() / exact.Fit(),
			TimeVsExact:      wallMs / exactMs,
		}
		rep.Rows = append(rep.Rows, row)
		if accepted == nil && row.FitVsExact >= minFit && row.TimeVsExact <= maxTime {
			rep.AcceptedFraction = frac
			accepted = res
		}
	}
	if accepted == nil {
		return rep, nil
	}

	// Determinism at benchmark scale: same seed, same factors, bit for bit —
	// serially and over a real worker fleet.
	repeat, err := rals.Solve(x, ralsOpts(rep.AcceptedFraction))
	if err != nil {
		return nil, fmt.Errorf("experiments: rals bench repeat failed: %w", err)
	}
	rep.BitwiseRepeat = bitwiseEqual(accepted, repeat)
	if cfg.DistWorkers > 0 {
		ro := ralsOpts(rep.AcceptedFraction)
		u, err := ro.Update(x)
		if err != nil {
			return nil, err
		}
		lc, err := dist.StartInProcess(cfg.DistWorkers)
		if err != nil {
			return nil, err
		}
		distRes, _, err := dist.Solve(x, ro.Options, u, lc.Config())
		lc.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: rals bench with %d workers failed: %w", cfg.DistWorkers, err)
		}
		rep.BitwiseDist = bitwiseEqual(accepted, distRes)
		rep.DistWorkers = cfg.DistWorkers
	}
	return rep, nil
}

// RenderRALSBench formats the report as a text table.
func RenderRALSBench(r *RALSReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Randomized leverage-score-sampled ALS: %v, %d nnz, rank %d, %d iters",
		r.Dims, r.NNZ, r.Rank, r.Iters)
	if r.Block > 0 {
		fmt.Fprintf(&b, ", block %d", r.Block)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s %9s %8s %12s %13s\n",
		"config", "wall ms", "fit", "fit/exact", "time/exact")
	for _, row := range r.Rows {
		name := "exact cp-als"
		if !row.Exact {
			name = fmt.Sprintf("sampled %4.0f%% e%d p%d",
				row.SampleFraction*100, row.ResampleEvery, row.ExactFinishIters)
		}
		fmt.Fprintf(&b, "%-24s %9.1f %8.4f %12.4f %13.2f\n",
			name, row.WallMs, row.Fit, row.FitVsExact, row.TimeVsExact)
	}
	if r.AcceptedFraction > 0 {
		fmt.Fprintf(&b, "accepted: %.0f%% budget reaches >= 0.99 of the exact fit in <= 0.5x the exact wall time\n",
			r.AcceptedFraction*100)
		fmt.Fprintf(&b, "bitwise: repeat %v", r.BitwiseRepeat)
		if r.DistWorkers > 0 {
			fmt.Fprintf(&b, ", %d dist workers %v", r.DistWorkers, r.BitwiseDist)
		}
		b.WriteByte('\n')
	} else {
		b.WriteString("WARNING: no swept budget met the 0.99-fit / 0.5x-time bar\n")
	}
	return b.String()
}
