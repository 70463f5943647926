package main

// The benchmark's metrics: names, units and which way is better.
// BENCHMARK.json at the repository root carries the same lists (the
// smoke test compares them) plus the end-to-end bounds.

type metricDef struct {
	name, unit string
	higher     bool   // higher is better
	source     string // per-layer only: C count, S span, P probe
	moves      string // per-layer only: the end-to-end metric it should move, and where
}

// Two clocks, never mixed: a metric whose unit starts with sim_ is on
// the simulated clock (or counts simulated bytes) and repeats exactly
// for a seed; every other time is host time of this Go program.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ic_ms_per_iter", unit: "ms"},
	{name: "pic_ms_per_pass", unit: "ms"},
	{name: "ic_allocs_k_per_iter", unit: "kobjects"},
	{name: "sim_ic_s_per_iter", unit: "sim_s"},
	{name: "sim_ic_net_mb_per_iter", unit: "sim_MB"},
}

var perLayer = []metricDef{
	{name: "core.ic_iters", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_speedup"},
	{name: "core.be_iters", unit: "count", source: "C", moves: "sim.pic_s, sim.pic_speedup"},
	{name: "core.topoff_iters", unit: "count", source: "C", moves: "sim.pic_s, sim.pic_speedup"},
	{name: "core.model_update_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb"},
	{name: "core.merge_traffic_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb"},
	{name: "core.repartition_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb"},
	{name: "core.rollbacks", unit: "count", source: "C", moves: "sim.pic_s on pagerank_chaos"},
	{name: "core.dead_nodes", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s on pagerank_chaos"},
	{name: "core.op_prepare_ms", unit: "ms", source: "S", moves: "setup_s on all six"},
	{name: "core.ic_step_ms_p50", unit: "ms", source: "S", moves: "ic_ms_per_iter on all six"},
	{name: "core.ic_step_ms_p90", unit: "ms", source: "S", moves: "ic_ms_per_iter on all six"},
	{name: "core.be_step_ms_p50", unit: "ms", source: "S", moves: "pic_ms_per_pass on all six"},
	{name: "core.topoff_step_ms_p50", unit: "ms", source: "S", moves: "pic_ms_per_pass on all six"},
	{name: "core.write_model_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter, pic_ms_per_pass mainly on smoothing_hier and pagerank_*"},
	{name: "core.restore_model_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on pagerank_chaos (rollback path)"},

	{name: "mapred.jobs", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s"},
	{name: "mapred.local_jobs", unit: "count", source: "C", moves: "sim.pic_s"},
	{name: "mapred.map_tasks", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s"},
	{name: "mapred.reduce_tasks", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s"},
	{name: "mapred.input_records", unit: "count", source: "C", moves: "ic_ms_per_iter (its denominator's size)"},
	{name: "mapred.local_records", unit: "count", source: "C", moves: "pic_ms_per_pass (its denominator's size)"},
	{name: "mapred.shuffle_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb"},
	{name: "mapred.shuffle_net_mb", unit: "sim_MB", source: "C", moves: "sim_ic_net_mb_per_iter"},
	{name: "mapred.model_mb", unit: "sim_MB", source: "C", moves: "sim_ic_net_mb_per_iter"},
	{name: "mapred.task_retries", unit: "count", source: "C", moves: "sim.ic_s on pagerank_chaos"},
	{name: "mapred.transfer_retries", unit: "count", source: "C", moves: "sim.ic_s on pagerank_chaos only"},
	{name: "mapred.corrupt_retries", unit: "count", source: "C", moves: "sim.ic_s on pagerank_chaos only"},
	{name: "mapred.retry_mb", unit: "sim_MB", source: "C", moves: "sim_ic_net_mb_per_iter on pagerank_chaos only"},
	{name: "mapred.cache_hit_ratio", unit: "ratio", higher: true, source: "C", moves: "ic_ms_per_iter on kmeans_fig2 and the mapred pagerank cells"},
	{name: "mapred.iter_cold_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter (first iteration) on kmeans_fig2, pagerank_mapred, _chaos, _tenancy_observed"},
	{name: "mapred.iter_warm_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on kmeans_fig2, pagerank_mapred, _chaos, _tenancy_observed; none on pagerank_bsp"},
	{name: "mapred.local_iter_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on kmeans_fig2, smoothing_hier and the mapred pagerank cells"},
	{name: "mapred.new_input_ms", unit: "ms", source: "P", moves: "setup_s on all six"},
	{name: "mapred.ns_per_record", unit: "ns", source: "S", moves: "ic_ms_per_iter on the mapred-backend workloads"},

	{name: "bsp.supersteps", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s on pagerank_bsp only"},
	{name: "bsp.messages", unit: "count", source: "C", moves: "sim.net_mb on pagerank_bsp only"},
	{name: "bsp.iter_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter, pic_ms_per_pass on pagerank_bsp only"},
	{name: "bsp.ns_per_message", unit: "ns", source: "P", moves: "ic_ms_per_iter on pagerank_bsp only"},

	{name: "model.keys", unit: "count", source: "C", moves: "which way the model.* probes weigh: many keys or large values"},
	{name: "model.encoded_kb", unit: "kB", source: "C", moves: "sim.net_mb"},
	{name: "model.delta_ratio", unit: "ratio", source: "C", moves: "sim.net_mb on smoothing_hier (delta checkpoints)"},
	{name: "model.encode_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter, pic_ms_per_pass on the pagerank family and smoothing_hier; none on kmeans_fig2"},
	{name: "model.decode_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on pagerank_chaos (restore); none on kmeans_fig2"},
	{name: "model.clone_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on the pagerank family and smoothing_hier; none on kmeans_fig2"},
	{name: "model.range_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on the pagerank family; none on kmeans_fig2"},
	{name: "model.delta_encode_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on smoothing_hier"},
	{name: "model.delta_apply_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on smoothing_hier"},

	{name: "dfs.write_pipeline_mb", unit: "sim_MB", source: "C", moves: "sim_ic_net_mb_per_iter, sim.net_mb"},
	{name: "dfs.remote_read_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb on pagerank_chaos"},
	{name: "dfs.rereplication_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb on pagerank_chaos"},
	{name: "dfs.detected_blocks", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s on pagerank_chaos only"},
	{name: "dfs.repaired_blocks", unit: "count", source: "C", moves: "sim.net_mb on pagerank_chaos only"},
	{name: "dfs.scrubbed_blocks", unit: "count", source: "C", moves: "ic_ms_per_iter on pagerank_chaos only"},
	{name: "dfs.unrepaired_blocks", unit: "count", source: "C", moves: "failed ops on pagerank_chaos"},
	{name: "dfs.create_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on smoothing_hier and the pagerank family (one checkpoint per iteration)"},
	{name: "dfs.read_checked_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on pagerank_chaos"},
	{name: "dfs.scrub_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on pagerank_chaos"},
	{name: "dfs.repair_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on pagerank_chaos"},

	{name: "simnet.total_mb", unit: "sim_MB", source: "C", moves: "sim.net_mb"},
	{name: "simnet.cross_rack_mb", unit: "sim_MB", source: "C", moves: "sim.ic_s, sim.pic_s"},
	{name: "simnet.transfers", unit: "count", source: "C", moves: "ic_ms_per_iter (host cost per priced flow)"},
	{name: "simnet.price_us", unit: "us", source: "P", moves: "ic_ms_per_iter; under 2 % everywhere today, recorded as a slope"},
	{name: "simnet.maxmin_us", unit: "us", source: "P", moves: "ic_ms_per_iter where fair sharing is on; recorded as a slope"},
	{name: "simnet.price_faulted_us", unit: "us", source: "P", moves: "ic_ms_per_iter on pagerank_chaos"},

	{name: "simcluster.schedule_us", unit: "us", source: "P", moves: "ic_ms_per_iter; recorded as a slope"},
	{name: "simcluster.failure_aware_us", unit: "us", source: "P", moves: "ic_ms_per_iter on pagerank_chaos"},
	{name: "simtime.ns_per_event", unit: "ns", source: "P", moves: "ic_ms_per_iter; recorded as a slope"},

	{name: "integrity.seal_open_mb_s", unit: "MB/s", higher: true, source: "P", moves: "ic_ms_per_iter, pic_ms_per_pass on pagerank_chaos"},

	{name: "sched.steps", unit: "count", source: "C", moves: "sim.ic_s, sim.pic_s on pagerank_tenancy_observed only"},
	{name: "sched.preemptions", unit: "count", source: "C", moves: "sim.pic_s on pagerank_tenancy_observed only"},
	{name: "sched.wait_sim_s", unit: "sim_s", source: "C", moves: "none today: the tenant is admitted at once"},
	{name: "sched.self_ratio", unit: "ratio", source: "S", moves: "ic_ms_per_iter, pic_ms_per_pass on pagerank_tenancy_observed only"},

	{name: "telemetry.events", unit: "count", source: "C", moves: "pic_ms_per_pass on pagerank_tenancy_observed; exactly 0 on the other five"},
	{name: "telemetry.tax_ratio", unit: "ratio", source: "S", moves: "ic_ms_per_iter, pic_ms_per_pass on pagerank_tenancy_observed"},
	{name: "telemetry.collect_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on pagerank_tenancy_observed"},
	{name: "telemetry.export_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on pagerank_tenancy_observed"},
	{name: "telemetry.ns_per_event", unit: "ns", source: "P", moves: "pic_ms_per_pass on pagerank_tenancy_observed"},

	{name: "apps.converged_ms", unit: "ms", source: "P", moves: "ic_ms_per_iter on the pagerank family"},
	{name: "apps.partition_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on kmeans_fig2 (record dealing) and the pagerank family"},
	{name: "apps.merge_ms", unit: "ms", source: "P", moves: "pic_ms_per_pass on smoothing_hier and the pagerank family"},

	{name: "data.gen_ms", unit: "ms", source: "S", moves: "setup_s"},

	{name: "go.gc_cycles_per_op", unit: "count", source: "C", moves: "ic_ms_per_iter, pic_ms_per_pass wherever allocation falls"},
	{name: "go.gc_pause_ms_per_op", unit: "ms", source: "C", moves: "ic_ms_per_iter, pic_ms_per_pass wherever allocation falls"},
	{name: "go.heap_inuse_mb", unit: "MB", source: "C", moves: "go.peak_rss_mb"},
	{name: "go.peak_rss_mb", unit: "MB", source: "C", moves: "the traced run's VmHWM: what the process needs; seed-dependent, the DFS keeps every checkpoint"},
	{name: "go.alloc_mb_per_op", unit: "MB", source: "C", moves: "ic_ms_per_iter, pic_ms_per_pass, go.peak_rss_mb"},
	{name: "go.allocs_k_per_op", unit: "count", source: "C", moves: "ic_allocs_k_per_iter, ic_ms_per_iter, pic_ms_per_pass"},

	{name: "sim.ic_s", unit: "sim_s", source: "C", moves: "the conventional scheme's simulated run time"},
	{name: "sim.pic_s", unit: "sim_s", source: "C", moves: "PIC's simulated run time"},
	{name: "sim.net_mb", unit: "sim_MB", source: "C", moves: "bytes both schemes put on the fabric"},
	{name: "sim.pic_speedup", unit: "ratio", higher: true, source: "C", moves: "the paper's headline: sim.ic_s / sim.pic_s"},
	{name: "sim.rate", unit: "ratio", higher: true, source: "C", moves: "simulated seconds per host second of the whole op"},

	{name: "bench.wall_s_per_op", unit: "s", source: "S", moves: "one plain op's host time in the traced run"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", source: "S", moves: "the benchmark's own tracing cost: stepped op over plain op"},
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}
