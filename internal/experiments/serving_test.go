package experiments

import (
	"strings"
	"testing"
)

// A shrunken ServeBench must complete with zero failed queries, at least
// one hot reload mid-sweep, and sane latency ordering — the same invariants
// `cstf-bench -exp serve` enforces at full size.
func TestServeBenchSmall(t *testing.T) {
	p := DefaultParams()
	cfg := ServeBenchConfig{
		Dims:             []int{300, 200, 100},
		NNZ:              3000,
		TrainIters:       2,
		Clients:          []int{1, 4},
		RequestsPerPhase: 200,
		HotRows:          0.3,
	}
	rep, err := ServeBenchWith(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(cfg.Clients) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(cfg.Clients))
	}
	for _, row := range rep.Rows {
		if row.Errors != 0 {
			t.Fatalf("queries failed at %d clients: %+v", row.Clients, row)
		}
		if row.Requests == 0 || row.QPS <= 0 {
			t.Fatalf("no throughput at %d clients: %+v", row.Clients, row)
		}
		if row.P99Micros < row.P50Micros {
			t.Fatalf("percentiles inverted: %+v", row)
		}
	}
	if rep.Reloads == 0 {
		t.Fatal("no hot reload observed")
	}
	if rep.ReloadErrs != 0 {
		t.Fatalf("reload errors: %+v", rep)
	}
	out := RenderServeBench(rep)
	if !strings.Contains(out, "clients") || !strings.Contains(out, "hot reloads") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	f, err := jsonFile("BENCH_serve.json", rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(f.Data), "\"p99_micros\"") {
		t.Fatalf("JSON missing latency fields:\n%s", string(f.Data))
	}
}
