package experiments

import (
	"strings"
	"testing"
)

// A shrunken FleetBench must complete every phase with zero failed
// queries, report a measured recall on approx rows, and roll a reload
// across the whole fleet without drops — the same invariants
// `cstf-bench -exp fleet` enforces at full size.
func TestFleetBenchSmall(t *testing.T) {
	p := DefaultParams()
	cfg := FleetBenchConfig{
		Dims:          []int{2000, 800, 300},
		Rank:          4,
		ReplicaCounts: []int{1, 2},
		Clients:       4,
		Requests:      300,
		Warmup:        200,
		WorkingSet:    100,
		CacheSize:     120,
		RecallQueries: 30,
		K:             5,
	}
	rep, err := FleetBenchWith(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(cfg.ReplicaCounts); len(rep.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), want)
	}
	for _, row := range rep.Rows {
		if row.Errors != 0 || row.Shed != 0 {
			t.Fatalf("dropped queries: %+v", row)
		}
		if row.Requests == 0 || row.QPS <= 0 {
			t.Fatalf("no throughput: %+v", row)
		}
		if row.P99Micros < row.P50Micros {
			t.Fatalf("percentiles inverted: %+v", row)
		}
		if !row.Approx && row.RecallAtK != 1 {
			t.Fatalf("exact row reports recall %v: %+v", row.RecallAtK, row)
		}
		if row.Approx && (row.RecallAtK <= 0 || row.RecallAtK > 1) {
			t.Fatalf("approx recall out of range: %+v", row)
		}
	}
	if rep.ScalingX <= 0 {
		t.Fatalf("no scaling measured: %+v", rep)
	}
	if rep.Reload.Reloaded != cfg.ReplicaCounts[len(cfg.ReplicaCounts)-1] {
		t.Fatalf("reload drill incomplete: %+v", rep.Reload)
	}
	if rep.Reload.Errors != 0 || rep.Reload.Shed != 0 {
		t.Fatalf("reload drill dropped queries: %+v", rep.Reload)
	}
	out := RenderFleetBench(rep)
	for _, h := range []string{"replicas", "recall@k", "rolling reload drill"} {
		if !strings.Contains(out, h) {
			t.Fatalf("render missing %q:\n%s", h, out)
		}
	}
}
