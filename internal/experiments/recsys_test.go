package experiments

import (
	"strings"
	"testing"
)

// A shrunken RecsysBench must carry every invariant the full-size run
// enforces: both models beat popularity, the ncp repeat is bitwise, every
// window publishes and hot-reloads on every replica, and the fleet's
// sharded TopK-with-exclude matches single-node. The config mirrors the
// rank package's planted-structure test, just with the streaming carve on
// top.
func TestRecsysBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a serving fleet")
	}
	p := DefaultParams()
	cfg := RecsysBenchConfig{
		Users:       120,
		Items:       80,
		Contexts:    4,
		Groups:      3,
		NNZ:         6000,
		Noise:       0.02,
		GenSeed:     13,
		TrainIters:  15,
		K:           10,
		StreamPct:   10,
		Windows:     3,
		Replicas:    2,
		FleetProbes: 3,
	}
	rep, err := RecsysBenchWith(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseRepeat {
		t.Fatal("ncp repeat not bitwise")
	}
	if rep.NCP.HR <= rep.Popularity.HR || rep.CPALS.HR <= rep.Popularity.HR {
		t.Fatalf("models did not beat popularity: ncp %.3f, cpals %.3f, pop %.3f",
			rep.NCP.HR, rep.CPALS.HR, rep.Popularity.HR)
	}
	if rep.TrainNNZ+rep.StreamNNZ+rep.HeldNNZ != rep.NNZ {
		t.Fatalf("carve %d+%d+%d != %d nnz", rep.TrainNNZ, rep.StreamNNZ, rep.HeldNNZ, rep.NNZ)
	}
	if len(rep.Rows) != cfg.Windows {
		t.Fatalf("got %d window rows, want %d", len(rep.Rows), cfg.Windows)
	}
	events := 0
	for _, row := range rep.Rows {
		if !row.FleetMatch {
			t.Fatalf("fleet TopK diverged: %+v", row)
		}
		if row.Version == 0 || row.LagMs < 0 {
			t.Fatalf("bad window row: %+v", row)
		}
		events += row.Events
	}
	if events != rep.StreamNNZ {
		t.Fatalf("windows streamed %d events, want %d", events, rep.StreamNNZ)
	}
	if rep.Reloads < uint64(cfg.Replicas*cfg.Windows) {
		t.Fatalf("%d reloads for %d replicas x %d windows", rep.Reloads, cfg.Replicas, cfg.Windows)
	}
	if rep.ShardedQueries == 0 {
		t.Fatal("no sharded queries recorded")
	}
	out := RenderRecsysBench(rep)
	for _, want := range []string{"popularity", "ncp", "cp-als", "fleet", "bitwise repeat true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	f, err := jsonFile("BENCH_recsys.json", rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"\"bitwise_repeat\": true", "\"lag_ms\"", "\"ncp_after_stream\"", "\"fleet_topk_match\": true"} {
		if !strings.Contains(string(f.Data), field) {
			t.Fatalf("JSON missing %s:\n%s", field, string(f.Data))
		}
	}
}
