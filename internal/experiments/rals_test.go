package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRALSBenchSmall(t *testing.T) {
	p := DefaultParams()
	rep, err := RALSBenchWith(p, RALSBenchConfig{
		Dims:        []int{60, 50, 40},
		NNZ:         5000,
		TrueRank:    3,
		Rank:        4,
		Noise:       0.02,
		GenSeed:     p.Seed,
		Iters:       8,
		Fractions:   []float64{0.3, 0.6},
		Resample:    2,
		Polish:      2,
		DistWorkers: 2,
		// Toy tensors carry no meaningful wall-clock signal; keep the fit
		// bar, drop the time bar so the bitwise checks always run.
		MinFitRatio:  0.8,
		MaxTimeRatio: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 rows (exact + 2 fractions), got %d: %+v", len(rep.Rows), rep.Rows)
	}
	if !rep.Rows[0].Exact || rep.Rows[0].FitVsExact != 1 || rep.Rows[0].TimeVsExact != 1 {
		t.Fatalf("first row is not the exact reference: %+v", rep.Rows[0])
	}
	for _, row := range rep.Rows[1:] {
		if row.Exact || row.SampleFraction <= 0 || row.WallMs <= 0 {
			t.Fatalf("malformed sampled row: %+v", row)
		}
	}
	if rep.AcceptedFraction == 0 {
		t.Fatalf("no sampled row met the loosened bar: %+v", rep.Rows)
	}
	if !rep.BitwiseRepeat {
		t.Fatal("same-seed rerun was not bitwise identical")
	}
	if !rep.BitwiseDist || rep.DistWorkers != 2 {
		t.Fatalf("distributed sampled run diverged: dist=%v workers=%d", rep.BitwiseDist, rep.DistWorkers)
	}

	f, err := jsonFile("BENCH_rals.json", rep)
	if err != nil {
		t.Fatal(err)
	}
	js := string(f.Data)
	for _, key := range []string{`"fit_vs_exact"`, `"time_vs_exact"`, `"accepted_fraction"`, `"bitwise_repeat"`, `"bitwise_dist"`} {
		if !strings.Contains(js, key) {
			t.Fatalf("JSON missing %s:\n%s", key, js)
		}
	}
	var back RALSReport
	if err := json.Unmarshal(f.Data, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if RenderRALSBench(rep) == "" {
		t.Fatal("empty render")
	}
}
