package main

// metricDef names one reported metric. Direction and regression bound
// live in BENCHMARK.json, which -selfcheck reads; TestBenchmarkJSON keeps
// the two lists in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, reported by
// an untraced run. All timings are host time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"throughput_rps", "op/s"},
	{"goodput_rps", "op/s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run;
// the layer is the module named before the dot.
var perLayer = []metricDef{
	{"serve.transport_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.fingerprint_us", "us"},
	{"serve.resp_bytes", "B"},
	{"serve.shed", "count"},
	{"resultcache.hit_us", "us"},
	{"resultcache.miss_overhead_us", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.executions", "count"},
	{"resultcache.evictions", "count"},
	{"batch.coalesce_ratio", "ratio"},
	{"batch.merged_forwards", "count"},
	{"batch.max_merged", "count"},
	{"batch.lone_wait_ms", "ms"},
	{"batch.serial_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p95_ms", "ms"},
	{"jobs.shed", "count"},
	{"jobs.dispatch_us", "us"},
	{"core.run_ms", "ms"},
	{"core.analytic_run_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.merged4_per_member_ms", "ms"},
	{"workloads.build_ms", "ms"},
	{"workloads.build_alloc_mb", "MB"},
	{"workloads.param_mb", "MB"},
	{"data.batch_ms", "ms"},
	{"data.concat4_ms", "ms"},
	{"plan.compile_ms", "ms"},
	{"plan.replay_ms", "ms"},
	{"plan.kernels_per_op", "count"},
	{"plan.gflop_per_op", "GFLOP"},
	{"plan.kernel_mb_per_op", "MB"},
	{"mmnet.forward_ms", "ms"},
	{"mmnet.forward_seq_ms", "ms"},
	{"mmnet.encoder_ms", "ms"},
	{"mmnet.fusion_ms", "ms"},
	{"mmnet.head_ms", "ms"},
	{"engine.tasks_per_op", "count"},
	{"engine.pool_hit_ratio", "ratio"},
	{"engine.pool_outstanding", "count"},
	{"gemm.pack_mb_per_op", "MB"},
	{"gemm.pack_hit_ratio", "ratio"},
	{"gemm.achieved_gflops", "GFLOP/s"},
	{"trace.finish_ms", "ms"},
	{"precision.lowp_run_ratio", "ratio"},
	{"loadgen.lat_p95_ms", "ms"},
	{"loadgen.samples_per_s", "samples/s"},
	{"loadgen.fail_ratio", "ratio"},
	{"loadgen.lag_p95_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.trace_overhead_ratio", "ratio"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.goroutines_end", "count"},
	{"unattributed_ms", "ms"},
}
