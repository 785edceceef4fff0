package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workload it should move it
// on — written down before any change is measured, so a later change
// can cite the pairing by name.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json order.
// Timings are means per call of the named public function, in
// milliseconds; counts are means per call. A workload that never runs
// a layer reports 0 for it.
var layerMetrics = []layerMetric{
	{"client.roundtrip_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},
	{"client.encode_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},
	{"client.decode_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},
	{"client.transport_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},
	{"client.request_kb", "KiB", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},
	{"client.response_kb", "KiB", "lower", "latency_p50_ms, cpu_ms_per_req", "fill-hot; little on pipeline"},

	{"server.handle_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "fill-hot"},
	{"server.self_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "fill-hot"},
	{"server.cache_hit_ratio", "ratio", "higher", "throughput_rps, latency_p50_ms", "fill-hot; 0 on fill-cold by construction"},
	{"server.cache_entries", "count", "higher", "throughput_rps, latency_p50_ms", "fill-hot"},

	{"engine.run_ms", "ms", "lower", "latency_p95_ms", "fill-cold, coord-batch"},
	{"engine.job_ms", "ms", "lower", "latency_p95_ms", "fill-cold, coord-batch"},
	{"engine.queue_wait_ms", "ms", "lower", "latency_p95_ms", "fill-cold, coord-batch"},

	{"cube.parse_ms", "ms", "lower", "latency_p50_ms, alloc_kb_per_req", "fill-hot; minor on fill-cold"},
	{"cube.reorder_ms", "ms", "lower", "latency_p50_ms, alloc_kb_per_req", "fill-hot; minor on fill-cold"},
	{"cube.toggle_stats_ms", "ms", "lower", "latency_p50_ms, alloc_kb_per_req", "fill-hot; minor on fill-cold"},
	{"cube.render_ms", "ms", "lower", "latency_p50_ms, alloc_kb_per_req", "fill-hot; minor on fill-cold"},

	{"order.tool_ms", "ms", "lower", "latency_p95_ms, throughput_rps, peak_toggles_mean", "fill-cold"},
	{"order.xstat_ms", "ms", "lower", "latency_p95_ms, throughput_rps, peak_toggles_mean", "fill-cold"},
	{"order.iorder_ms", "ms", "lower", "latency_p95_ms, throughput_rps, peak_toggles_mean", "fill-cold"},
	{"order.iorder_iterations", "count", "lower", "latency_p95_ms, throughput_rps, peak_toggles_mean", "fill-cold"},

	{"core.fill_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.pack_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.scan_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.reconstruct_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.unpack_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.other_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.intervals", "count", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},
	{"core.forced_unit", "count", "lower", "throughput_rps, cpu_ms_per_req, alloc_kb_per_req", "fill-cold; none on pipeline"},

	{"bcp.bound_ms", "ms", "lower", "latency_p50_ms", "fill-cold"},
	{"bcp.assign_ms", "ms", "lower", "latency_p50_ms", "fill-cold"},
	{"bcp.windows_scanned", "count", "lower", "latency_p50_ms", "fill-cold"},
	{"bcp.suffix_breaks", "count", "higher", "latency_p50_ms", "fill-cold"},
	{"bcp.start_skip_ratio", "ratio", "higher", "latency_p50_ms", "fill-cold"},

	{"netgen.generate_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.generate_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.curve_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.patterns", "count", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.faults", "count", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.aborted", "count", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"atpg.sim_drop_ratio", "ratio", "higher", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"scan.shift_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"power.capture_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"power.irdrop_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"pipeline.fill_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},
	{"pipeline.run_ms", "ms", "lower", "throughput_rps, latency_p50_ms", "pipeline; none on fill-*"},

	{"cluster.dispatch_ms", "ms", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.worker_ms", "ms", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.overhead_ms", "ms", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.hop_ms", "ms", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.attempts_per_shard", "count", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.hedges", "count", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.fallbacks", "count", "lower", "latency_p50_ms, throughput_rps", "coord-batch only"},
	{"cluster.affinity_hit_ratio", "ratio", "higher", "latency_p50_ms, throughput_rps", "coord-batch only"},

	{"trace.overhead_ms", "ms", "lower", "none: cost of tracing itself", "every workload"},
	{"trace.overhead_pct", "%", "lower", "none: cost of tracing itself", "every workload"},
}
