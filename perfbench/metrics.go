package main

// metricDef names a metric and its unit. The names and units here are
// the ones BENCHMARK.json lists; the quick test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"minstr_per_s", "Minstr/s"},
	{"alloc_kb_per_op", "KB"},
	{"elim_pct_dyn", "%"},
	{"elim_pct_static", "%"},
}

// perLayer are the metrics of the traced run: self times per op, counts
// per op, and ratios of sums.
var perLayer = []metricDef{
	{"minijava.parse_ms", "ms"},
	{"minijava.check_ms", "ms"},
	{"minijava.src_kb", "KB"},
	{"codegen.ms", "ms"},
	{"codegen.bytecode_bytes", "bytes"},
	{"inline.ms", "ms"},
	{"inline.expanded_calls", "count"},
	{"inline.bytecode_bytes", "bytes"},
	{"verifier.ms", "ms"},
	{"core.summaries_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.block_visits", "count"},
	{"core.degraded_methods", "count"},
	{"core.sites_elided_ratio", "ratio"},
	{"pipeline.compile_ms", "ms"},
	{"pipeline.cache_hit_ratio", "ratio"},
	{"pipeline.cache_coalesced", "count"},
	{"vm.new_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"vm.ns_per_instr", "ns"},
	{"vm.steps", "count"},
	{"vm.tier_ups", "count"},
	{"vm.tier_deopts", "count"},
	{"vm.deopts_per_tier_up", "ratio"},
	{"vm.tier_seg_execs", "count"},
	{"vm.oracle_checks", "count"},
	{"vm.go_allocs_per_run", "count"},
	{"satb.barrier_execs", "count"},
	{"satb.elided_execs", "count"},
	{"satb.logged", "count"},
	{"satb.shaded", "count"},
	{"satb.cards", "count"},
	{"satb.cost_units", "count"},
	{"gc.cycles", "count"},
	{"gc.final_pause_work", "count"},
	{"heap.allocated", "count"},
	{"heap.swept", "count"},
	{"satbd.queue_wait_ms", "ms"},
	{"satbd.server_ms", "ms"},
	{"satbd.transport_ms", "ms"},
	{"satbd.tier0_ratio", "ratio"},
	{"satbd.shed", "count"},
	{"bench.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans_per_op", "count"},
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: no end-to-end metric " + name)
}
