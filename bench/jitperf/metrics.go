package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesTable keeps them in step);
// bench/README.md defines each.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the bounded metrics a user of jitserver would see; every
// workload reports all of them from the untraced run (-trace 0). None can be
// zero, and each holds within its bound from run to run on a shared 2-vCPU
// box — which no timing but set-up does (bench/README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cost_units_per_arrival", "CU", "lower"},
}

// diagnostics are end-to-end figures without a bound, measured in every run
// and printed by it, but reported to the driver with the per-layer metrics:
// either they can legitimately be zero, which a driver end-to-end metric may
// not be, or they could not be held within the largest admissible bound
// (25 %) from run to run on a shared 2-vCPU box — throughput, CPU per arrival
// and every latency (bench/README.md, "Steadiness").
var diagnostics = []metricDef{
	{"e2e.peak_arrivals_per_s", "1/s", "higher"},
	{"e2e.cpu_us_per_arrival", "us", "lower"},
	{"sustained_rate_per_s", "1/s", "higher"},
	{"failed_fraction", "ratio", "lower"},
	{"e2e.latency_p50_ms_lo", "ms", "lower"},
	{"e2e.latency_p95_ms_lo", "ms", "lower"},
	{"e2e.latency_p99_ms_lo", "ms", "lower"},
	{"e2e.latency_p50_ms_hi", "ms", "lower"},
	{"e2e.latency_p95_ms_hi", "ms", "lower"},
	{"e2e.latency_p99_ms_hi", "ms", "lower"},
	{"e2e.paced_samples_lo", "count", "higher"},
	{"e2e.paced_samples_hi", "count", "higher"},
	{"e2e.peak_pass_s", "s", "lower"},
	{"serve.paced_cpu_us_per_arrival", "us", "lower"},
	{"bench.loadgen_late_ms_p99", "ms", "lower"},
	{"bench.loadgen_encode_ns_per_frame", "ns", "lower"},
}

// layerMetrics are the metrics of single layers, which need the in-process
// replay. A metric that does not apply to a workload (checkpoint.* without
// checkpoints, the overhead probes off clique_ref, a percentile without its
// samples) reads 0.
var layerMetrics = []metricDef{
	{"serve.decode_ns_per_frame", "ns", "lower"},
	{"serve.decode_allocs_per_frame", "count", "lower"},
	{"serve.decode_bytes_per_frame", "B", "lower"},
	{"serve.path_overhead_us_per_arrival", "us", "lower"},

	{"engine.us_per_arrival", "us", "lower"},
	{"engine.arrival_us_p50", "us", "lower"},
	{"engine.arrival_us_p99", "us", "lower"},
	{"engine.arrival_us_max", "us", "lower"},
	{"engine.drain_ms", "ms", "lower"},
	{"engine.late_early_ratio", "ratio", "lower"},
	{"engine.result_latency_us_p50", "us", "lower"},
	{"engine.result_latency_us_p99", "us", "lower"},
	{"engine.sweeps_per_arrival", "count", "lower"},
	{"engine.alloc_bytes_per_arrival", "B", "lower"},
	{"engine.allocs_per_arrival", "count", "lower"},
	{"engine.gc_cpu_fraction", "ratio", "lower"},
	{"engine.heap_end_mb", "MB", "lower"},
	{"engine.accounted_peak_kb", "KB", "lower"},
	{"engine.ns_per_cost_unit", "ns", "lower"},
	{"engine.reorder_us_per_arrival", "us", "lower"},

	{"core.mns_detected_per_arrival", "count", "lower"},
	{"core.suspended_per_arrival", "count", "lower"},
	{"core.resumed_per_arrival", "count", "lower"},
	{"core.suppressed_pairs_per_arrival", "count", "higher"},
	{"core.catchup_joins_per_arrival", "count", "lower"},
	{"core.final_per_result", "ratio", "higher"},
	{"core.suspend_payback", "ratio", "higher"},
	{"lattice.nodes_per_arrival", "count", "lower"},
	{"feedback.msgs_per_arrival", "count", "lower"},

	{"state.probes_per_arrival", "count", "lower"},
	{"state.comparisons_per_arrival", "count", "lower"},
	{"state.inserted_per_arrival", "count", "lower"},
	{"state.purged_per_arrival", "count", "lower"},
	{"state.match_ratio", "ratio", "higher"},

	{"operator.queue_ops_per_arrival", "count", "lower"},
	{"operator.sink_us_per_result", "us", "lower"},
	{"stream.key_ns_per_result", "ns", "lower"},
	{"plan.build_us", "us", "lower"},
	{"plan.snapshot_us", "us", "lower"},
	{"plan.replay_us_per_row", "us", "lower"},

	{"checkpoint.count", "count", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.encode_us", "us", "lower"},
	{"checkpoint.save_us", "us", "lower"},
	{"checkpoint.decode_us", "us", "lower"},
	{"checkpoint.stall_us_per_arrival", "us", "lower"},
	{"checkpoint.recover_ms", "ms", "lower"},

	{"obs.tracer_overhead_pct", "%", "lower"},
	{"bench.span_overhead_pct", "%", "lower"},
}

// perLayer is what -trace 1 reports to the driver.
var perLayer = append(append([]metricDef(nil), diagnostics...), layerMetrics...)
