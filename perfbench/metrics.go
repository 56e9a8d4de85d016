package main

// metricDef names one reported metric; BENCHMARK.json declares the same
// names, units and directions (a test holds the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported untraced.
var endToEnd = []metricDef{
	{"plans_per_s", "plans/cpu-s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"transfers_per_s", "puts/cpu-s", "higher"},
	{"sim_time_geo_us", "us", "lower"},
	{"model_err_pct", "%", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one group per module on the plan
// path (serve, ucx, hw, core) and the transfer path (mpi, ucx, pipeline,
// cuda, fluid, sim). Self times subtract the next layer's time on the same
// inputs.
var perLayer = []metricDef{
	{"serve.socket_us", "us", "lower"},
	{"serve.req_bytes_per_plan", "B", "lower"},
	{"serve.resp_bytes_per_plan", "B", "lower"},
	{"serve.handler_self_us", "us", "lower"},
	{"serve.allocs_per_plan", "count", "lower"},
	{"serve.reload_ms", "ms", "lower"},
	{"ucx.planfor_ns", "ns", "lower"},
	{"ucx.planfor_self_ns", "ns", "lower"},
	{"ucx.planfor_allocs", "count", "lower"},
	{"hw.enumerate_ns", "ns", "lower"},
	{"hw.enumerate_allocs", "count", "lower"},
	{"core.hit_ns", "ns", "lower"},
	{"core.miss_ns", "ns", "lower"},
	{"core.hit_ratio", "ratio", "higher"},
	{"core.evictions_per_plan", "ratio", "lower"},
	{"core.inflight_merges", "count", "lower"},
	{"mpi.op_host_us", "us", "lower"},
	{"mpi.self_us", "us", "lower"},
	{"ucx.put_host_us", "us", "lower"},
	{"ucx.self_us", "us", "lower"},
	{"ucx.retries_per_put", "ratio", "lower"},
	{"ucx.failovers_per_put", "ratio", "lower"},
	{"ucx.plan_hit_ratio", "ratio", "higher"},
	{"pipeline.exec_host_us", "us", "lower"},
	{"pipeline.self_us", "us", "lower"},
	{"cuda.copy_host_us", "us", "lower"},
	{"cuda.self_us", "us", "lower"},
	{"fluid.flow_host_us", "us", "lower"},
	{"fluid.self_us", "us", "lower"},
	{"sim.events_per_put", "count", "lower"},
	{"sim.event_host_ns", "ns", "lower"},
	{"fluid.busy_frac.nvlink", "ratio", "higher"},
	{"fluid.busy_frac.pcie", "ratio", "higher"},
	{"fluid.busy_frac.mem", "ratio", "higher"},
	{"fluid.busy_frac.upi", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}
