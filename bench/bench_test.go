package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads, traced, at the smoke preset, so the
// ordinary test run keeps the benchmark compiling and its output checks
// passing. It asserts counts and completeness only — no time and no ratio
// of times — so it holds at any GOMAXPROCS and under the race detector.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err := runWorkload(runConfig{
				Workload: w.name, Seed: 7, Seconds: defaultSeconds, Smoke: true,
				Trace: true, TraceOut: tracePath, WorkDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("output check failed: %s", p)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("failed %d of %d attempted", res.Failed, res.Attempted)
			}
			if line := res.line(false); !line.Correct {
				t.Errorf("end-to-end result line incomplete: %+v", line.Metrics)
			}
			// Every end-to-end metric and every metric of a layer the
			// workload exercises must have been measured.
			must := []string{"qps_hot", "serve.scan_us_p50", "serve.server_topk_us_p50", "serve.cache_hit_share.hot", "host.stream_read_gbps", "trace.overhead_share"}
			for _, d := range endToEnd {
				must = append(must, d.Name)
			}
			switch {
			case w.shadow:
				must = append(must, "cpals.mttkrp_coo_s", "cpals.mttkrp_csf_s", "cpals.mttkrp_share", "la.share", "la.rowsolve_s", "tensor.index_build_s", "tensor.csf_build_s", "cpals.shadow_phase_sum_share")
			case w.dist:
				must = append(must, "dist.first_iter_s", "dist.wire_sent_mb", "dist.wire_shard_mb", "dist.delta_frames", "dist.codec.shard_encode_ns_per_nnz", "dist.frame_roundtrip_us")
			case w.stream:
				must = append(must, "freshness_lag_ms_p50", "query_upd_p95_ms", "stream.apply_ms_p50", "stream.publish_ms_p50", "serve.reload_ms_p50", "ckpt.write_ms", "ckpt.read_ms", "stream.touched_rows_per_window")
			}
			for _, name := range must {
				if v, ok := res.Metrics[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
					t.Errorf("metric %s = %v (measured: %v)", name, v, ok)
				}
			}
			for name := range res.Metrics {
				if !defined(name) {
					t.Errorf("metric %s is measured but not declared in metrics.go", name)
				}
			}

			b, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}

func defined(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root equal to the table in metrics.go and workloads.go.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(benchmarkManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`:\n on disk: %s\n program: %s", gb, wb)
	}
}

func TestSizesScaleWithSeconds(t *testing.T) {
	for _, w := range workloads {
		short, long := w.sizes(10, false, false), w.sizes(40, false, false)
		if long.cold != 4*short.cold || long.hot != 4*short.hot {
			t.Errorf("%s: query phases do not scale with -seconds: %v vs %v", w.name, short, long)
		}
		if w.fixedIters == 0 && long.iters <= short.iters {
			t.Errorf("%s: iterations do not grow with -seconds: %d vs %d", w.name, short.iters, long.iters)
		}
		if again := w.sizes(10, false, false); again != short {
			t.Errorf("%s: sizes are not a pure function of -seconds", w.name)
		}
	}
}
