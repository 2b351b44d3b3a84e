package experiments

import (
	"bytes"
	"encoding/json"
	"strings"

	"cstf/internal/workload"
)

// File is one output of an experiment, written under cstf-bench's -out
// directory.
type File struct {
	Name string
	Data []byte
}

// ExperimentInfo is one cstf-bench experiment. The registry below is the
// single source of truth for `cstf-bench -list`, the -exp usage text, the
// order `-exp all` runs experiments in, and what each one prints and
// writes — the binary has no experiment list of its own, so a new
// benchmark added here shows up everywhere at once.
type ExperimentInfo struct {
	Name string
	Desc string
	// Explicit entries run only when named: `-exp all` skips them.
	Explicit bool
	// Run performs the experiment and returns its text report, printed
	// as is, and the files to write.
	Run func(Params) (report string, files []File, err error)
}

// Experiments returns the registry in run order.
func Experiments() []ExperimentInfo {
	return []ExperimentInfo{
		{Name: "table5", Desc: "modeled Table 5 dataset statistics", Run: runTable5},
		{Name: "table4", Desc: "modeled mode-1 MTTKRP flops, intermediate data and shuffles per algorithm (Table 4)", Run: runTable4},
		{Name: "fig2", Desc: "modeled time per iteration across datasets (Figure 2)", Run: runFig2},
		{Name: "fig3", Desc: "modeled 4th-order time per iteration across datasets (Figure 3)", Run: runFig3},
		{Name: "fig4", Desc: "modeled shuffle reduction of QCOO (Figure 4)", Run: runFig4},
		{Name: "fig5", Desc: "modeled per-mode behavior (Figure 5)", Run: runFig5},
		{Name: "ablations", Desc: "caching, gram reuse, rank/order sweeps, resilience, partitions", Run: runAblations},
		{Name: "faults", Desc: "crash/straggler/checkpoint sweeps on the simulated cluster (writes BENCH_faults.json)", Run: runFaults},
		{Name: "serve", Desc: "train, checkpoint, serve, load-test the query tier (writes BENCH_serve.json)", Run: runServe},
		{Name: "stream", Desc: "streaming ingest + incremental factor updates (writes BENCH_stream.json)", Run: runStream},
		{Name: "dist", Desc: "real TCP workers vs single-process, bitwise-checked (writes BENCH_dist.json)", Run: runDist},
		{Name: "rals", Desc: "randomized sampled ALS vs exact across budgets, bitwise-checked (writes BENCH_rals.json)", Run: runRALS},
		{Name: "recsys", Desc: "recommender: ncp vs cpals vs popularity, streamed updates + fleet TopK (writes BENCH_recsys.json)", Run: runRecsys},
		// json re-runs the sweeps of table4 and fig2..fig5, so `-exp all`
		// leaves it out.
		{Name: "json", Desc: "machine-readable report of the modeled experiments (writes report.json)", Explicit: true, Run: runJSON},
	}
}

// jsonFile encodes v as indented JSON: the one format of every JSON file
// cstf-bench writes.
func jsonFile(name string, v any) (File, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return File{Name: name, Data: b.Bytes()}, err
}

// lines joins rendered sections into one report, each followed by a blank
// line.
func lines(sections ...string) string {
	var b strings.Builder
	for _, s := range sections {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

func runTable5(p Params) (string, []File, error) {
	return lines(RenderTable5(Table5(p))), nil, nil
}

func runTable4(p Params) (string, []File, error) {
	rows, err := Table4(p)
	if err != nil {
		return "", nil, err
	}
	cfg, err := workload.ByName("delicious3d")
	if err != nil {
		return "", nil, err
	}
	return lines(RenderTable4(rows, cfg.ScaledNNZ(p.Scale), p.Rank)), nil, nil
}

func runFig2(p Params) (string, []File, error) {
	rows, err := Fig2(p)
	if err != nil {
		return "", nil, err
	}
	return lines(RenderFig2(rows)), []File{{"fig2.csv", []byte(CSVFig2(rows))}}, nil
}

func runFig3(p Params) (string, []File, error) {
	rows, err := Fig3(p)
	if err != nil {
		return "", nil, err
	}
	return lines(RenderFig3(rows)), []File{{"fig3.csv", []byte(CSVFig3(rows))}}, nil
}

func runFig4(p Params) (string, []File, error) {
	res, err := Fig4(p)
	if err != nil {
		return "", nil, err
	}
	return lines(RenderFig4(res, p.Scale)), nil, nil
}

func runFig5(p Params) (string, []File, error) {
	rows, err := Fig5(p)
	if err != nil {
		return "", nil, err
	}
	return lines(RenderFig5(rows)), nil, nil
}

func runAblations(p Params) (string, []File, error) {
	caching, err := AblationCaching(p)
	if err != nil {
		return "", nil, err
	}
	gram, err := AblationGramReuse(p)
	if err != nil {
		return "", nil, err
	}
	ranks, err := AblationRankSweep(p)
	if err != nil {
		return "", nil, err
	}
	orders, err := AblationOrderSweep(p)
	if err != nil {
		return "", nil, err
	}
	res, err := ResilienceSweep(p)
	if err != nil {
		return "", nil, err
	}
	parts, err := AblationPartitions(p)
	if err != nil {
		return "", nil, err
	}
	return lines(RenderAblationCaching(caching), RenderAblationGramReuse(gram),
		RenderAblationRankSweep(ranks), RenderAblationOrderSweep(orders),
		RenderResilience(res), RenderAblationPartitions(parts)), nil, nil
}

func runFaults(p Params) (string, []File, error) {
	crashes, err := CrashSweep(p)
	if err != nil {
		return "", nil, err
	}
	stragglers, err := StragglerSweep(p)
	if err != nil {
		return "", nil, err
	}
	checkpoints, err := CheckpointSweep(p)
	if err != nil {
		return "", nil, err
	}
	rep, err := FaultsBenchWith(p, DefaultFaultsBenchConfig())
	if err != nil {
		return "", nil, err
	}
	f, err := jsonFile("BENCH_faults.json", rep)
	return lines(RenderCrashSweep(crashes), RenderStragglerSweep(stragglers),
		RenderCheckpointSweep(checkpoints), RenderFaultsBench(rep)), []File{f}, err
}

func runServe(p Params) (string, []File, error) {
	rep, err := ServeBenchWith(p, DefaultServeBenchConfig())
	if err != nil {
		return "", nil, err
	}
	if rep.Fleet, err = FleetBenchWith(p, DefaultFleetBenchConfig()); err != nil {
		return "", nil, err
	}
	f, err := jsonFile("BENCH_serve.json", rep)
	return lines(RenderServeBench(rep), RenderFleetBench(rep.Fleet)), []File{f}, err
}

func runStream(p Params) (string, []File, error) {
	rep, err := StreamBenchWith(p, DefaultStreamBenchConfig())
	if err != nil {
		return "", nil, err
	}
	f, err := jsonFile("BENCH_stream.json", rep)
	return lines(RenderStreamBench(rep)), []File{f}, err
}

func runDist(p Params) (string, []File, error) {
	comp, err := DistBenchWith(p, ComputeDistBenchConfig())
	if err != nil {
		return "", nil, err
	}
	wire, err := DistBenchWith(p, WireDistBenchConfig())
	if err != nil {
		return "", nil, err
	}
	rep := &DistBenchReport{Compute: comp, Wire: wire, AllExact: comp.AllExact && wire.AllExact}
	f, err := jsonFile("BENCH_dist.json", rep)
	return lines(RenderDistBench(rep)), []File{f}, err
}

func runRALS(p Params) (string, []File, error) {
	rep, err := RALSBenchWith(p, DefaultRALSBenchConfig())
	if err != nil {
		return "", nil, err
	}
	f, err := jsonFile("BENCH_rals.json", rep)
	return lines(RenderRALSBench(rep)), []File{f}, err
}

func runRecsys(p Params) (string, []File, error) {
	rep, err := RecsysBenchWith(p, DefaultRecsysBenchConfig())
	if err != nil {
		return "", nil, err
	}
	f, err := jsonFile("BENCH_recsys.json", rep)
	return lines(RenderRecsysBench(rep)), []File{f}, err
}

// Report is the machine-readable form of the modeled experiments, for
// downstream plotting or regression tracking (report.json).
type Report struct {
	Scale  float64     `json:"scale"`
	Rank   int         `json:"rank"`
	Seed   uint64      `json:"seed"`
	Fig2   []Fig2Row   `json:"fig2,omitempty"`
	Fig3   []Fig3Row   `json:"fig3,omitempty"`
	Fig4   *Fig4Result `json:"fig4,omitempty"`
	Fig5   []Fig5Row   `json:"fig5,omitempty"`
	Table4 []Table4Row `json:"table4,omitempty"`
}

func runJSON(p Params) (string, []File, error) {
	rep := &Report{Scale: p.Scale, Rank: p.Rank, Seed: p.Seed}
	var err error
	if rep.Fig2, err = Fig2(p); err != nil {
		return "", nil, err
	}
	if rep.Fig3, err = Fig3(p); err != nil {
		return "", nil, err
	}
	if rep.Fig4, err = Fig4(p); err != nil {
		return "", nil, err
	}
	if rep.Fig5, err = Fig5(p); err != nil {
		return "", nil, err
	}
	if rep.Table4, err = Table4(p); err != nil {
		return "", nil, err
	}
	f, err := jsonFile("report.json", rep)
	return "", []File{f}, err
}
