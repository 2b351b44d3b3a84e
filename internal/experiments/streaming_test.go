package experiments

import (
	"strings"
	"testing"
)

// A shrunken StreamBench must run every window, publish every version, get
// at least one hot reload, and stay close to the batch fit — the same
// invariants `cstf-bench -exp stream` enforces at full size.
func TestStreamBenchSmall(t *testing.T) {
	p := DefaultParams()
	cfg := StreamBenchConfig{
		Dims:           []int{60, 50, 40},
		InitNNZ:        4000,
		TrainIters:     3,
		Windows:        4,
		WindowSize:     400,
		FullSweepEvery: 2,
		GrowEvery:      300,
	}
	rep, err := StreamBenchWith(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != cfg.Windows {
		t.Fatalf("got %d window rows, want %d", len(rep.Rows), cfg.Windows)
	}
	for _, row := range rep.Rows {
		if row.Events == 0 || row.TouchedRows == 0 {
			t.Fatalf("window did no work: %+v", row)
		}
		if row.Version == 0 {
			t.Fatalf("window not published: %+v", row)
		}
		if row.LagMs < 0 {
			t.Fatalf("negative freshness lag: %+v", row)
		}
	}
	if rep.Published != cfg.Windows {
		t.Fatalf("published %d versions, want %d", rep.Published, cfg.Windows)
	}
	if rep.ServerReloads == 0 {
		t.Fatal("no hot reload observed")
	}
	if rep.FinalNNZ <= rep.InitNNZ {
		t.Fatalf("tensor did not grow: %d -> %d nnz", rep.InitNNZ, rep.FinalNNZ)
	}
	grew := false
	for m := range rep.Dims {
		if rep.FinalDims[m] > rep.Dims[m] {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("GrowEvery never grew dims: %v -> %v", rep.Dims, rep.FinalDims)
	}
	if rep.FitDrift > 0.1 {
		t.Fatalf("streamed model drifted %v behind batch (stream %v, batch %v)",
			rep.FitDrift, rep.StreamFit, rep.BatchFit)
	}
	out := RenderStreamBench(rep)
	if !strings.Contains(out, "window") || !strings.Contains(out, "stream fit") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	f, err := jsonFile("BENCH_stream.json", rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"\"lag_ms\"", "\"fit_drift\"", "\"window_vs_retrain_speedup\""} {
		if !strings.Contains(string(f.Data), field) {
			t.Fatalf("JSON missing %s:\n%s", field, string(f.Data))
		}
	}
}
