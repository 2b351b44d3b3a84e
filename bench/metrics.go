package main

// The benchmark's vocabulary: every metric it can print, with its unit,
// direction and (end to end) regression bound. BENCHMARK.json is this
// table written out; a test keeps the two equal.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median the metric may worsen by; end to end only
}

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one of them: each workload trains a model with one
// Decompose call and then serves and queries it.
//
// The bounds are what this host supports, not what one would wish for: each
// is about three times the widest quartile spread seen over ten seeds on any
// workload (README, "Reference-host numbers"), capped at the contract's
// 25 %. The issue's 10 % is below the run-to-run spread of the solver times
// here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"train_s", "s", "lower", 0.25},
	{"iter_ms_p50", "ms", "lower", 0.25},
	{"fit_final", "ratio", "higher", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"qps_cold", "1/s", "higher", 0.20},
	{"query_cold_p50_ms", "ms", "lower", 0.15},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload that does not exercise a layer prints 0 for its metrics.
var perLayer = []metricDef{
	// Candidates for end to end that only serve-stream measures, that not
	// every workload has the samples for, or (qps_hot) whose single runs
	// spread past the widest bound the contract allows; kept under the
	// issue's names.
	{"qps_hot", "1/s", "higher", 0},
	{"query_cold_p99_ms", "ms", "lower", 0},
	{"query_upd_p95_ms", "ms", "lower", 0},
	{"freshness_lag_ms_p50", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},

	{"tensor.index_build_s", "s", "lower", 0},
	{"tensor.csf_build_s", "s", "lower", 0},
	{"tensor.bytes_per_nnz_computed", "B", "lower", 0},

	{"cpals.mttkrp_coo_s", "s", "lower", 0},
	{"cpals.mttkrp_coo_ns_per_nnz", "ns", "lower", 0},
	{"cpals.mttkrp_coo_s.mode0", "s", "lower", 0},
	{"cpals.mttkrp_coo_s.mode1", "s", "lower", 0},
	{"cpals.mttkrp_coo_s.mode2", "s", "lower", 0},
	{"cpals.mttkrp_coo_s.mode3", "s", "lower", 0},
	{"cpals.mttkrp_csf_s", "s", "lower", 0},
	{"cpals.mttkrp_csf_ns_per_nnz", "ns", "lower", 0},
	{"cpals.mttkrp_gbps_computed", "GB/s", "higher", 0},
	{"cpals.mttkrp_share", "ratio", "lower", 0},
	{"cpals.fit_s", "s", "lower", 0},
	{"cpals.iter_ms_p75", "ms", "lower", 0},
	{"cpals.shadow_total_s", "s", "lower", 0},
	{"cpals.shadow_vs_public", "ratio", "lower", 0},
	{"cpals.shadow_phase_sum_share", "ratio", "higher", 0},

	{"la.rowsolve_s", "s", "lower", 0},
	{"la.rowsolve_gflops_computed", "GFLOP/s", "higher", 0},
	{"la.gram_s", "s", "lower", 0},
	{"la.normalize_s", "s", "lower", 0},
	{"la.pinv_s", "s", "lower", 0},
	{"la.share", "ratio", "lower", 0},

	{"dist.first_iter_s", "s", "lower", 0},
	{"dist.steady_iter_ms_p50", "ms", "lower", 0},
	{"dist.iter_speedup_vs_serial", "ratio", "higher", 0},
	{"dist.wire_sent_mb", "MB", "lower", 0},
	{"dist.wire_recv_mb", "MB", "lower", 0},
	{"dist.wire_shard_mb", "MB", "lower", 0},
	{"dist.wire_factor_mb", "MB", "lower", 0},
	{"dist.wire_mb_per_iter", "MB", "lower", 0},
	{"dist.delta_frames", "count", "lower", 0},
	{"dist.worker_deaths", "count", "lower", 0},
	{"dist.task_reassignments", "count", "lower", 0},
	{"dist.codec.shard_encode_ns_per_nnz", "ns", "lower", 0},
	{"dist.codec.shard_decode_ns_per_nnz", "ns", "lower", 0},
	{"dist.codec.factor_encode_mbps", "MB/s", "higher", 0},
	{"dist.codec.factor_decode_mbps", "MB/s", "higher", 0},
	{"dist.frame_roundtrip_us", "us", "lower", 0},

	{"ckpt.write_ms", "ms", "lower", 0},
	{"ckpt.write_mb", "MB", "lower", 0},
	{"ckpt.read_ms", "ms", "lower", 0},

	{"stream.apply_ms_p50", "ms", "lower", 0},
	{"stream.touched_rows_per_window", "count", "lower", 0},
	{"stream.publish_ms_p50", "ms", "lower", 0},
	{"stream.events_per_s", "1/s", "higher", 0},

	{"serve.scan_us_p50", "us", "lower", 0},
	{"serve.scan_ns_per_row", "ns", "lower", 0},
	{"serve.server_topk_us_p50", "us", "lower", 0},
	{"serve.http_overhead_us_p50", "us", "lower", 0},
	{"serve.model_build_ms", "ms", "lower", 0},
	{"serve.reload_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_share.cold", "ratio", "higher", 0},
	{"serve.cache_hit_share.hot", "ratio", "higher", 0},
	{"serve.cache_hit_share.upd", "ratio", "higher", 0},
	{"serve.mean_batch.cold", "count", "higher", 0},
	{"serve.mean_batch.hot", "count", "higher", 0},
	{"serve.mean_batch.upd", "count", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.gen_late_ms_p99", "ms", "lower", 0},

	{"host.stream_read_gbps", "GB/s", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
