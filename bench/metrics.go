package main

// metric mirrors one entry of BENCHMARK.json; TestBenchmarkJSON holds the
// two in step. bound is zero for per-layer metrics, which have none.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// boundedMetrics are the end-to-end metrics BENCHMARK.json names and the
// JSON result line carries, reported on every workload. bound is the share
// of the parent's median by which a change may worsen the metric. The three
// timings are read from the quiet quarter of a run (measure.go, quietShare).
var boundedMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_mbps", "MB/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// endToEndMetrics are what an untraced run prints and -repeat compares:
// the bounded metrics and three more that BENCHMARK.json cannot carry.
//
// failed_ops_share is compared absolutely: its bound is 0 and so is every
// correct run. The driver's contract takes no metric that reads 0, so the
// JSON result line carries it as its failed and attempted counts.
//
// The window.* metrics are the three timings read the plain way, over every
// set-up repetition and every timed pass of the run: the median set-up, the
// payload bytes over the wall time, the median latency of all timed ops. On
// the shared sandboxes they move by more than any usable bound from run to
// run, which is why they are not the bounded ones; they are printed beside
// them so that a change the quiet quarter hides still shows, and -repeat
// says "unresolved" where they cannot tell two sets apart.
var endToEndMetrics = append(boundedMetrics[:len(boundedMetrics):len(boundedMetrics)],
	metric{"failed_ops_share", "ratio", "lower", 0},
	metric{"window.setup_s", "s", "lower", 0.20},
	metric{"window.throughput_mbps", "MB/s", "higher", 0.10},
	metric{"window.op_p50_ms", "ms", "lower", 0.10},
)

// perLayerMetrics are reported by the traced run. A metric whose layer is
// not in the workload's resolved plan reads 0.
var perLayerMetrics = []metric{
	{name: "regex.compile_s", unit: "s", better: "lower"},
	{name: "transform.to_rate_s", unit: "s", better: "lower"},
	{name: "transform.device_states", unit: "count", better: "lower"},
	{name: "analysis.minimize_s", unit: "s", better: "lower"},
	{name: "analysis.symbol_classes_s", unit: "s", better: "lower"},
	{name: "analysis.symbol_classes", unit: "count", better: "lower"},
	{name: "analysis.merged_states", unit: "count", better: "higher"},
	{name: "mapping.place_s", unit: "s", better: "lower"},
	{name: "mapping.pus", unit: "count", better: "lower"},
	{name: "funcsim.expand_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "funcsim.expand_alloc_bytes_per_byte", unit: "B/B", better: "lower"},
	{name: "core.configure_s", unit: "s", better: "lower"},
	{name: "core.run_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "core.run_share", unit: "ratio", better: "lower"},
	{name: "core.reset_ns", unit: "ns", better: "lower"},
	{name: "core.clone_ns", unit: "ns", better: "lower"},
	{name: "core.active_states_mean", unit: "count", better: "lower"},
	{name: "core.kernel_cycles", unit: "count", better: "lower"},
	{name: "core.stall_cycles", unit: "count", better: "lower"},
	{name: "core.flushes", unit: "count", better: "lower"},
	{name: "core.reports", unit: "count", better: "lower"},
	{name: "core.report_cycles", unit: "count", better: "lower"},
	{name: "dfa.plan_s", unit: "s", better: "lower"},
	{name: "dfa.step_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "dfa.step_share", unit: "ratio", better: "lower"},
	{name: "dfa.hit_rate", unit: "ratio", better: "higher"},
	{name: "dfa.states", unit: "count", better: "lower"},
	{name: "dfa.misses", unit: "count", better: "lower"},
	{name: "dfa.evictions", unit: "count", better: "lower"},
	{name: "dfa.fallbacks", unit: "count", better: "lower"},
	{name: "prefilter.extract_s", unit: "s", better: "lower"},
	{name: "prefilter.literals", unit: "count", better: "lower"},
	{name: "prefilter.scan_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "prefilter.scan_share", unit: "ratio", better: "lower"},
	{name: "prefilter.windows_per_mb", unit: "1/MB", better: "lower"},
	{name: "prefilter.skipped_cycle_share", unit: "ratio", better: "higher"},
	{name: "sched.dependence_s", unit: "s", better: "lower"},
	{name: "sched.parallel_run_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "sched.shards", unit: "count", better: "higher"},
	{name: "sched.warmup_cycle_share", unit: "ratio", better: "lower"},
	{name: "sched.parallel_scan_mbps", unit: "MB/s", better: "higher"},
	{name: "facade.compile_s", unit: "s", better: "lower"},
	{name: "facade.compile_self_s", unit: "s", better: "lower"},
	{name: "facade.scan_self_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "facade.matches_per_kb", unit: "1/KiB", better: "lower"},
	{name: "facade.stream_write_p50_us", unit: "us", better: "lower"},
	{name: "facade.stream_close_us", unit: "us", better: "lower"},
	{name: "facade.batch_ns_per_op", unit: "ns", better: "lower"},
	{name: "facade.op_p90_ms", unit: "ms", better: "lower"},
	{name: "server.handler_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.wire_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.json_decode_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.json_encode_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.raw_body_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.response_bytes_per_op", unit: "B", better: "lower"},
	{name: "server.pool_wait_share", unit: "ratio", better: "lower"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.srv_p99_ms", unit: "ms", better: "lower"},
	{name: "server.http_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
}
