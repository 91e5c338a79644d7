package main

// metricDef names one reported metric. For per-layer metrics, moves
// names the end-to-end metric and workload the layer should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. result_p50_ms is the time until the
// workload's result is published: one cold fixpoint on the fixpoint-*
// workloads, one POST /v1/mutate up to its 200 on serve-churn.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "result_p50_ms", unit: "ms"},
}

const (
	movesSetup = "setup_s on every workload"
	movesDense = "result_p50_ms on fixpoint-dense"
	movesDeep  = "result_p50_ms on fixpoint-dense and fixpoint-tcp (most on fixpoint-deep)"
	movesTCP   = "result_p50_ms on fixpoint-tcp"
	movesMem   = "peak_rss_mb and result_p50_ms on fixpoint-dense and fixpoint-tcp"
	movesApply = "result_p50_ms and driver.mutate_p90_ms on serve-churn"
	movesRead  = "driver.lookup_p99_us on serve-churn"
)

// perLayer are the traced run's metrics, one group per module the
// benchmark calls into. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"gen.build_s", "s", movesSetup},
	{"parser.parse_ms", "ms", movesSetup},
	{"analyzer.analyze_ms", "ms", movesSetup},
	{"checker.check_ms", "ms", movesSetup},
	{"compiler.compile_s", "s", movesSetup},

	{"compiler.propagate_ns_per_edge", "ns", movesDense},
	{"monotable.fold_ns_per_kv", "ns", movesDense},
	{"monotable.scan_ns_per_key", "ns", movesDense},

	{"runtime.kvs_sent", "count", movesDense},
	{"runtime.flushes", "count", movesDense},
	{"runtime.kvs_per_flush", "ratio", movesDense},
	{"runtime.kvs_per_vertex", "ratio", movesDense},
	{"runtime.recv_dup_batches", "count", movesDense},
	{"runtime.scan_parallel_passes", "count", movesDense},
	{"runtime.scan_steals", "count", movesDense},
	{"runtime.beta_final", "count", movesDense},

	{"runtime.master_rounds", "count", movesDeep},
	{"runtime.master_round_ms", "ms", movesDeep},
	{"runtime.master_collect_wait_ms", "ms", movesDeep},
	{"runtime.barrier_straggler_wait_ms", "ms", movesDeep},

	{"transport.send_calls", "count", movesTCP},
	{"transport.send_busy_ms", "ms", movesTCP},
	{"transport.bytes", "bytes", movesTCP},
	{"transport.bytes_per_kv", "bytes", movesTCP},
	{"transport.batches", "count", movesTCP},

	{"goruntime.alloc_mb_per_fixpoint", "MB", movesMem},
	{"goruntime.allocs_per_fixpoint", "count", movesMem},
	{"goruntime.gc_cycles_per_fixpoint", "count", movesMem},

	{"runtime.session_apply_ms", "ms", movesApply},
	{"runtime.session_rounds_per_apply", "count", movesApply},
	{"runtime.session_invalidated_keys_per_apply", "count", movesApply},
	{"runtime.session_reseeded_keys_per_apply", "count", movesApply},
	{"runtime.session_changed_keys_per_apply", "count", movesApply},
	{"runtime.session_cone_useful_ratio", "ratio", movesApply},
	{"runtime.session_cold_refixpoint_ms", "ms", movesApply},

	{"server.mutate_overhead_ms", "ms", "result_p50_ms on serve-churn"},
	{"server.lookup_server_p50_us", "us", movesRead},
	{"server.shed_busy", "count", movesRead},
	{"server.shed_rate", "count", movesRead},

	// The serving tail latencies: end-to-end quantities that only
	// serve-churn has, so they cannot be end-to-end metrics of every
	// workload.
	{"driver.mutate_p90_ms", "ms", "serving writes on serve-churn"},
	{"driver.lookup_p50_us", "us", "serving reads on serve-churn"},
	{"driver.lookup_p99_us", "us", "serving reads on serve-churn"},
	{"driver.late_p99_us", "us", "driver.lookup_p99_us on serve-churn (generator health)"},

	{"trace.overhead_frac", "ratio", "none: traced over untraced result_p50_ms minus 1"},
}
