package main

// metricDef names one reported metric: its unit, which direction is
// better, and the bound (a share of the parent's median) by which an
// end-to-end metric may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root lists the same names; the
// smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd is what an untraced run (--trace 0) prints, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer is what a traced run (--trace 1) prints, on every workload.
// A workload whose own ops do not reach a layer takes that layer's
// figures from a short probe run of the workload that does (see
// README.md, "Probes").
var perLayer = []metricDef{
	// Figures that cannot be end-to-end metrics: the tail percentiles
	// spread by more than a tenth between runs of the contract's length
	// (and the p99 of a run with fewer than 1000 ops is its maximum), a
	// failure ratio is 0 on a correct build, and the pooled executor
	// allocates nothing per couple-warm step.
	{"op_p90_ms", "ms", "lower", 0},
	{"op_p99_ms", "ms", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
	{"allocs_per_op", "count", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},

	{"mpsim.world_start_ms", "ms", "lower", 0},
	{"mpsim.barrier_us", "us", "lower", 0},
	{"mpsim.cpu_util", "ratio", "higher", 0},
	{"mpsim.shard_speedup", "ratio", "higher", 0},
	{"mpsim.msgs_per_op", "count", "lower", 0},
	{"mpsim.bytes_per_op", "bytes", "lower", 0},
	{"mpsim.vtime_ms_per_op", "vms", "lower", 0}, // simulated milliseconds

	{"core.schedule_ms", "ms", "lower", 0},
	{"core.schedule_allocs", "count", "lower", 0},
	{"core.schedule_share", "ratio", "lower", 0},
	{"core.move_us", "us", "lower", 0},
	{"core.moveadd_us", "us", "lower", 0},
	{"core.movereverse_us", "us", "lower", 0},
	{"core.move_allocs", "count", "lower", 0},
	{"core.bytes_copied_per_move", "bytes", "lower", 0},
	{"core.elems_per_move", "count", "higher", 0},

	{"hpfrt.owned_positions_ms", "ms", "lower", 0},
	{"hpfrt.owned_positions_allocs", "count", "lower", 0},
	{"mbparti.owned_positions_ms", "ms", "lower", 0},
	{"mbparti.owned_positions_allocs", "count", "lower", 0},
	{"chaoslib.owned_positions_ms", "ms", "lower", 0},
	{"chaoslib.owned_positions_allocs", "count", "lower", 0},
	{"pcxxrt.owned_positions_ms", "ms", "lower", 0},
	{"pcxxrt.owned_positions_allocs", "count", "lower", 0},
	{"lparx.owned_positions_ms", "ms", "lower", 0},
	{"lparx.owned_positions_allocs", "count", "lower", 0},
	{"chaoslib.table_build_ms", "ms", "lower", 0},

	{"codec.pack_gbps", "GB/s", "higher", 0},
	{"codec.copy_gbps", "GB/s", "higher", 0},
	{"bufpool.get_release_ns", "ns", "lower", 0},

	{"serve.register_ms", "ms", "lower", 0},
	{"serve.open_ms", "ms", "lower", 0},
	{"serve.close_ms", "ms", "lower", 0},
	{"serve.move_ms", "ms", "lower", 0},
	{"serve.moveadd_ms", "ms", "lower", 0},
	{"serve.movereverse_ms", "ms", "lower", 0},
	{"serve.ops_per_batch", "count", "higher", 0},
	{"serve.cache_hit_rate", "ratio", "higher", 0},
	{"serve.open_warm_share", "ratio", "higher", 0},
	{"serve.open_repaired_share", "ratio", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.worlds", "count", "lower", 0},
	{"serve.sessions_end", "count", "lower", 0},
	{"serve.backpressure_total", "count", "lower", 0},
	{"serve.retryable_total", "count", "lower", 0},
	{"serve.daemon_cpu_ms_per_op", "ms", "lower", 0},

	{"runtime.gc_cpu_share", "ratio", "lower", 0},
}
