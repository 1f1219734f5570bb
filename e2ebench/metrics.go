package main

// metricDef names one printed metric. BENCHMARK.json lists the same names,
// units and directions; metrics_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are printed by an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"edges_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are printed by a traced run (--trace 1). A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"client.encode_ns_per_edge", "ns/edge", "lower"},
	{"client.wait_ns_per_edge", "ns/edge", "lower"},
	{"client.frames_per_session", "frames", "lower"},
	{"client.wire_bytes_per_edge", "B/edge", "lower"},
	{"client.retries", "count", "lower"},
	{"serve.frame_ns_per_edge", "ns/edge", "lower"},
	{"serve.parse_ns_per_edge", "ns/edge", "lower"},
	{"serve.busy_ns_per_edge", "ns/edge", "lower"},
	{"serve.checks_ns_per_edge", "ns/edge", "lower"},
	{"serve.transport_ns_per_edge", "ns/edge", "lower"},
	{"serve.host_ms", "ms", "lower"},
	{"serve.rejects", "count", "lower"},
	{"verify.automaton_ms", "ms", "lower"},
	{"verify.compiled_ms", "ms", "lower"},
	{"verify.findings", "count", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.kernel_ns_per_edge", "ns/edge", "lower"},
	{"core.stride_hit_ratio", "ratio", "higher"},
	{"core.tea_bytes_per_state", "B/state", "lower"},
	{"core.encode_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.parallel_replay_ns_per_edge", "ns/edge", "lower"},
	{"core.sequential_replay_ns_per_edge", "ns/edge", "lower"},
	{"core.record_ns_per_edge", "ns/edge", "lower"},
	{"core.recorded_states", "count", "lower"},
	{"trace.recorded_traces", "count", "lower"},
	{"core.coverage", "ratio", "higher"},
	{"core.desyncs", "count", "lower"},
	{"pipeline.feed_ns_per_edge", "ns/edge", "lower"},
	{"pipeline.barrier_ns_per_edge", "ns/edge", "lower"},
	{"pipeline.scan_ns_per_edge", "ns/edge", "lower"},
	{"pipeline.replay_ns_per_edge", "ns/edge", "lower"},
	{"pipeline.record_speedup", "ratio", "higher"},
	{"pipeline.lifecycle_ms_per_job", "ms", "lower"},
	{"pipeline.backpressure_waits_per_job", "waits/job", "lower"},
	{"pipeline.quiet_chunk_ratio", "ratio", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.layer_sum_err", "ratio", "lower"},
}
