package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/tensor"
)

// Distributed-runtime benchmark: the same planted CP-ALS problem solved by
// the single-process reference and by the real TCP runtime. Everything
// reported for the distributed runs is MEASURED — wall clock and bytes on
// actual sockets — unlike the simulated-cluster experiments; and every run
// is checked bitwise against the matching serial solver, so the table
// doubles as the determinism acceptance test at benchmark scale.
//
// Two regimes are benchmarked:
//
//   - compute: a 4-mode dense-block tensor where the SPLATT CSF shard
//     kernel does algorithmically fewer flops than the COO loop, so the
//     distributed runtime beats the serial COO reference on wall clock.
//   - wire: a 3-mode tensor with large factor matrices and block-local
//     nonzeros, where each worker touches a small fraction of every
//     factor. Delta broadcasts are A/B'd against full-factor broadcasts
//     (Config.NoDelta) to measure the factor-wire reduction.

// DistBenchConfig sizes one distributed benchmark regime; tests shrink it.
type DistBenchConfig struct {
	Dims       []int   // planted tensor shape
	NNZ        int     // nonzeros
	TrueRank   int     // planted rank
	Rank       int     // decomposition rank (0 = Params.Rank)
	Block      int     // dense-block side (GenBlockSparse); 0 = GenLowRank
	Noise      float64 // additive noise level
	GenSeed    uint64  // tensor generator seed
	Iters      int     // ALS iterations
	WorkerSets []int   // worker counts to run
	CSF        bool    // dist rows use the SPLATT CSF shard kernel
	DeltaAB    bool    // add a full-broadcast (NoDelta) A/B row per worker count
	Chaos      bool    // add a mid-run worker-crash row at the max worker count
}

// ComputeDistBenchConfig returns the compute-regime sizing: 4-mode dense
// blocks, CSF-favorable, where the distributed runtime must beat serial.
func ComputeDistBenchConfig() DistBenchConfig {
	return DistBenchConfig{
		Dims:       []int{600, 500, 400, 300},
		NNZ:        500000,
		TrueRank:   4,
		Rank:       16,
		Block:      10,
		Noise:      0.01,
		GenSeed:    11,
		Iters:      40,
		WorkerSets: []int{1, 2, 4},
		CSF:        true,
		Chaos:      true,
	}
}

// WireDistBenchConfig returns the communication-regime sizing: large factor
// matrices, block-local nonzeros, delta vs full broadcasts A/B'd.
func WireDistBenchConfig() DistBenchConfig {
	return DistBenchConfig{
		Dims:       []int{3000, 2800, 2600},
		NNZ:        300000,
		TrueRank:   4,
		Rank:       16,
		Block:      20,
		Noise:      0.01,
		GenSeed:    13,
		Iters:      20,
		WorkerSets: []int{4, 8},
		CSF:        true,
		DeltaAB:    true,
	}
}

// DistRow is one configuration's measurements.
type DistRow struct {
	// Serial marks the single-process reference rows; Workers is omitted
	// for them (rather than the old ambiguous `workers: 0`).
	Serial          bool    `json:"serial,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	Kernel          string  `json:"kernel"` // "coo" or "csf"
	DeltaBroadcast  bool    `json:"delta_broadcast"`
	Chaos           bool    `json:"chaos,omitempty"` // mid-run worker crash injected
	WallMs          float64 `json:"wall_ms"`
	WireSentMB      float64 `json:"wire_sent_mb"`
	WireRecvMB      float64 `json:"wire_recv_mb"`
	WireShardMB     float64 `json:"wire_shard_mb"`
	WireFactorMB    float64 `json:"wire_factor_mb"`
	WireDeltaFrames int     `json:"wire_delta_frames"`
	Resyncs         int     `json:"factor_resyncs,omitempty"`
	Fit             float64 `json:"fit"`
	BitwiseSame     bool    `json:"bitwise_equal_to_serial"`
	Speedup         float64 `json:"speedup_vs_serial"`
}

// DistReport is one regime's machine-readable result.
type DistReport struct {
	Dims  []int     `json:"dims"`
	NNZ   int       `json:"nnz"`
	Rank  int       `json:"rank"`
	Iters int       `json:"iters"`
	Block int       `json:"block,omitempty"`
	Rows  []DistRow `json:"rows"`
	// AllExact: every distributed row matched its same-kernel serial
	// reference bit for bit.
	AllExact bool `json:"all_bitwise_equal"`
	// FactorWireReduction is full/delta factor-broadcast bytes at the
	// largest A/B'd worker count (0 when DeltaAB was off).
	FactorWireReduction float64 `json:"factor_wire_reduction_vs_full,omitempty"`
}

// DistBenchReport bundles both regimes (results/BENCH_dist.json).
type DistBenchReport struct {
	Compute  *DistReport `json:"compute"`
	Wire     *DistReport `json:"wire"`
	AllExact bool        `json:"all_bitwise_equal"`
}

// WriteJSON writes the report as indented JSON.
func (r *DistBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DistBench runs both regimes with the default sizing.
func DistBench(p Params) (*DistBenchReport, error) {
	comp, err := DistBenchWith(p, ComputeDistBenchConfig())
	if err != nil {
		return nil, err
	}
	wire, err := DistBenchWith(p, WireDistBenchConfig())
	if err != nil {
		return nil, err
	}
	return &DistBenchReport{
		Compute:  comp,
		Wire:     wire,
		AllExact: comp.AllExact && wire.AllExact,
	}, nil
}

// benchSettle reduces run-to-run interference between timed rows.
func benchSettle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// DistBenchWith generates the planted tensor, solves it serially (COO
// always, CSF additionally when the config uses the CSF shard kernel),
// then once per worker count over real TCP loopback workers, verifying
// bitwise identity against the same-kernel serial reference each time.
// Speedups are always relative to the serial COO row.
func DistBenchWith(p Params, cfg DistBenchConfig) (*DistReport, error) {
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
	opts := cpals.Options{Rank: rank, MaxIters: cfg.Iters, Seed: p.Seed}

	rep := &DistReport{Dims: cfg.Dims, NNZ: x.NNZ(), Rank: rank, Iters: cfg.Iters, Block: cfg.Block, AllExact: true}

	benchSettle()
	start := time.Now()
	serialCOO, err := cpals.Solve(x, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: dist bench serial solve failed: %w", err)
	}
	cooMs := time.Since(start).Seconds() * 1e3
	rep.Rows = append(rep.Rows, DistRow{
		Serial: true, Kernel: "coo", WallMs: cooMs,
		Fit: serialCOO.Fit(), BitwiseSame: true, Speedup: 1,
	})

	// The bitwise reference for dist rows matches the shard kernel: COO
	// workers reproduce the COO solver, CSF workers the CSF solver.
	reference := serialCOO
	kernel := "coo"
	if cfg.CSF {
		kernel = "csf"
		csfOpts := opts
		csfOpts.CSFKernel = true
		benchSettle()
		start = time.Now()
		serialCSF, err := cpals.Solve(x, csfOpts)
		if err != nil {
			return nil, fmt.Errorf("experiments: dist bench serial CSF solve failed: %w", err)
		}
		csfMs := time.Since(start).Seconds() * 1e3
		reference = serialCSF
		rep.Rows = append(rep.Rows, DistRow{
			Serial: true, Kernel: "csf", WallMs: csfMs,
			Fit: serialCSF.Fit(), BitwiseSame: true, Speedup: cooMs / csfMs,
		})
	}

	distRow := func(n int, noDelta, withChaos bool) (DistRow, error) {
		benchSettle()
		lc, err := dist.StartInProcess(n)
		if err != nil {
			return DistRow{}, err
		}
		dc := lc.Config()
		dc.UseCSF = cfg.CSF
		dc.NoDelta = noDelta
		if withChaos {
			// Crash a mid-rank worker a few stages in; the run must still
			// finish and still match the serial reference bit for bit.
			dc.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: n / 2, Stage: 2})
		}
		res, stats, err := dist.Solve(x, opts, cpals.Update{}, dc)
		lc.Close()
		if err != nil {
			return DistRow{}, fmt.Errorf("experiments: dist bench with %d workers failed: %w", n, err)
		}
		wallMs := stats.WallSeconds * 1e3
		return DistRow{
			Workers:         n,
			Kernel:          kernel,
			DeltaBroadcast:  !noDelta,
			Chaos:           withChaos,
			WallMs:          wallMs,
			WireSentMB:      float64(stats.BytesSent) / 1e6,
			WireRecvMB:      float64(stats.BytesRecv) / 1e6,
			WireShardMB:     float64(stats.ShardBytes) / 1e6,
			WireFactorMB:    float64(stats.FactorBytes) / 1e6,
			WireDeltaFrames: stats.DeltaFrames,
			Resyncs:         stats.Resyncs,
			Fit:             res.Fit(),
			BitwiseSame:     bitwiseEqual(reference, res),
			Speedup:         cooMs / wallMs,
		}, nil
	}

	var deltaMB, fullMB float64
	for _, n := range cfg.WorkerSets {
		row, err := distRow(n, false, false)
		if err != nil {
			return nil, err
		}
		if !row.BitwiseSame {
			rep.AllExact = false
		}
		deltaMB = row.WireFactorMB
		rep.Rows = append(rep.Rows, row)
		if cfg.DeltaAB {
			full, err := distRow(n, true, false)
			if err != nil {
				return nil, err
			}
			if !full.BitwiseSame {
				rep.AllExact = false
			}
			fullMB = full.WireFactorMB
			rep.Rows = append(rep.Rows, full)
		}
	}
	if cfg.DeltaAB && deltaMB > 0 {
		rep.FactorWireReduction = fullMB / deltaMB
	}
	if cfg.Chaos && len(cfg.WorkerSets) > 0 {
		n := cfg.WorkerSets[len(cfg.WorkerSets)-1]
		row, err := distRow(n, false, true)
		if err != nil {
			return nil, err
		}
		if !row.BitwiseSame {
			rep.AllExact = false
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// bitwiseEqual compares two CP results bit for bit: lambda, factors, fits.
func bitwiseEqual(a, b *cpals.Result) bool {
	if len(a.Lambda) != len(b.Lambda) || len(a.Factors) != len(b.Factors) || len(a.Fits) != len(b.Fits) {
		return false
	}
	for i := range a.Lambda {
		if math.Float64bits(a.Lambda[i]) != math.Float64bits(b.Lambda[i]) {
			return false
		}
	}
	for i := range a.Fits {
		if math.Float64bits(a.Fits[i]) != math.Float64bits(b.Fits[i]) {
			return false
		}
	}
	for n := range a.Factors {
		fa, fb := a.Factors[n], b.Factors[n]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols {
			return false
		}
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(fb.Data[i]) {
				return false
			}
		}
	}
	return true
}

// RenderDistBench formats the combined report as text tables.
func RenderDistBench(r *DistBenchReport) string {
	var b strings.Builder
	b.WriteString("Distributed runtime (measured over TCP loopback)\n")
	renderDistSection(&b, "compute regime", r.Compute)
	renderDistSection(&b, "wire regime", r.Wire)
	if r.AllExact {
		b.WriteString("every distributed run bitwise-identical to its serial reference\n")
	} else {
		b.WriteString("WARNING: distributed results diverged from the serial solver\n")
	}
	return b.String()
}

func renderDistSection(b *strings.Builder, title string, r *DistReport) {
	if r == nil {
		return
	}
	fmt.Fprintf(b, "\n%s: %v, %d nnz, rank %d, %d iters", title, r.Dims, r.NNZ, r.Rank, r.Iters)
	if r.Block > 0 {
		fmt.Fprintf(b, ", block %d", r.Block)
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "%-22s %9s %10s %10s %7s %8s %8s %8s\n",
		"config", "wall ms", "shard MB", "factor MB", "frames", "fit", "exact", "speedup")
	for _, row := range r.Rows {
		name := "serial " + row.Kernel
		if !row.Serial {
			name = fmt.Sprintf("%d worker(s) %s", row.Workers, row.Kernel)
			if !row.DeltaBroadcast {
				name += " full"
			}
			if row.Chaos {
				name += " chaos"
			}
		}
		fmt.Fprintf(b, "%-22s %9.1f %10.2f %10.2f %7d %8.4f %8v %8.2f\n",
			name, row.WallMs, row.WireShardMB, row.WireFactorMB, row.WireDeltaFrames,
			row.Fit, row.BitwiseSame, row.Speedup)
	}
	if r.FactorWireReduction > 0 {
		fmt.Fprintf(b, "factor-broadcast wire: %.2fx smaller with deltas (largest worker count)\n",
			r.FactorWireReduction)
	}
}
