package main

// metricDef names one metric of BENCHMARK.json. The tables below and that
// file must agree; bench_test.go checks that they do.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of Horse sees, reported from untraced
// repetitions only. The bounds are about three times the spread (distance
// between quartiles over median) measured across ten seeds on the 2-core
// box the baseline was taken on, capped at the 0.25 the driver allows; see
// README.md.
var endToEnd = []metricDef{
	{"run_wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
}

// perLayer are the <module>.<metric> numbers of the traced run: phase
// spans and public counters of the traced repetition first, then the
// isolated layer probes.
var perLayer = []metricDef{
	{"horse.build_s", "s", "lower", 0},
	{"horse.setup_s", "s", "lower", 0},
	{"horse.engine_s", "s", "lower", 0},
	{"horse.teardown_s", "s", "lower", 0},
	{"horse.outcome_s", "s", "lower", 0},
	{"horse.gc_pause_ms", "ms", "lower", 0},
	{"horse.num_gc", "count", "lower", 0},
	{"horse.converged_virtual_s", "s", "lower", 0},

	{"sim.fti_wall_s", "s", "lower", 0},
	{"sim.des_wall_s", "s", "lower", 0},
	{"sim.fti_virtual_s", "s", "lower", 0},
	{"sim.fti_slowdown", "ratio", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.control_posts", "count", "lower", 0},
	{"sim.transitions", "count", "lower", 0},
	{"sim.peak_queue_depth", "count", "lower", 0},
	{"sim.late_events", "count", "lower", 0},

	{"cm.control_bytes", "B", "lower", 0},
	{"cm.control_writes", "count", "lower", 0},
	{"cm.route_installs", "count", "lower", 0},
	{"cm.route_withdraws", "count", "lower", 0},
	{"cm.flow_mods_applied", "count", "lower", 0},
	{"cm.packet_ins", "count", "lower", 0},
	{"cm.stats_queries", "count", "lower", 0},
	{"cm.injections", "count", "lower", 0},
	{"bgp.updates_sent", "count", "lower", 0},
	{"bgp.updates_recv", "count", "lower", 0},
	{"bgp.routes_per_update", "ratio", "higher", 0},
	{"netmodel.reroutes", "count", "lower", 0},
	{"netmodel.drops", "count", "lower", 0},

	{"fluid.solves", "count", "lower", 0},
	{"fluid.flows_per_solve", "ratio", "lower", 0},
	{"fluid.rounds_per_solve", "ratio", "lower", 0},
	{"fluid.components", "count", "lower", 0},
	{"fluid.max_component_flows", "count", "lower", 0},
	{"fluid.parallel_solves", "count", "higher", 0},

	{"campaign.runs_per_s", "1/s", "higher", 0},
	{"campaign.events_published", "count", "lower", 0},
	{"campaign.persist_bytes", "B", "lower", 0},
	{"capture.files", "count", "lower", 0},
	{"capture.bytes", "B", "lower", 0},
	{"spec.digest_mismatches", "count", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},

	// Layer probes: sdn-install's layers.
	{"topo.fattree_build_ms", "ms", "lower", 0},
	{"topo.all_shortest_paths_us", "us", "lower", 0},
	{"openflow.flowmod_encode_ns", "ns", "lower", 0},
	{"openflow.flowmod_decode_ns", "ns", "lower", 0},
	{"flowtable.add_ns", "ns", "lower", 0},
	{"flowtable.lookup_hit_ns", "ns", "lower", 0},
	{"flowtable.lookup_miss_ns", "ns", "lower", 0},
	{"wire.flow_frame_build_ns", "ns", "lower", 0},
	{"wire.flow_frame_parse_ns", "ns", "lower", 0},
	{"controller.install_s", "s", "lower", 0},
	{"controller.flow_mods_per_s", "1/s", "higher", 0},
	{"netmodel.flush_reroutes_ms", "ms", "lower", 0},

	// wan-fulltable's layers.
	{"topo.wan_multias_build_ms", "ms", "lower", 0},
	{"bgp.pack_updates_ms", "ms", "lower", 0},
	{"bgp.decode_update_us", "us", "lower", 0},
	{"bgp.rib_update_adjin_ns", "ns", "lower", 0},
	{"bgp.rib_decide_ns", "ns", "lower", 0},
	{"bgp.rib_drop_peer_ms", "ms", "lower", 0},
	{"bgp.session_transfer_s", "s", "lower", 0},
	{"bgp.routes_per_s", "1/s", "higher", 0},
	{"emu.pipe_mb_per_s", "MB/s", "higher", 0},
	{"emu.pipe_msg_ns", "ns", "lower", 0},
	{"fib.insert_ns", "ns", "lower", 0},
	{"fib.lookup_ns", "ns", "lower", 0},
	{"fib.remove_ns", "ns", "lower", 0},
	{"fib.prune_port_ms", "ms", "lower", 0},
	{"netmodel.install_route_ns", "ns", "lower", 0},

	// des-churn's layers.
	{"fluid.churn_op_us", "us", "lower", 0},
	{"fluid.set_capacity_us", "us", "lower", 0},
	{"fluid.integrate_us", "us", "lower", 0},
	{"fluid.rx_by_dst_us", "us", "lower", 0},
	{"netmodel.start_flow_us", "us", "lower", 0},
	{"netmodel.stop_flow_us", "us", "lower", 0},
	{"sim.des_events_per_s", "1/s", "higher", 0},
	{"sim.post_roundtrip_us", "us", "lower", 0},
	{"sim.fti_step_overhead_us", "us", "lower", 0},
	{"traffic.pareto_gen_ms", "ms", "lower", 0},
	{"spec.outcome_ms", "ms", "lower", 0},

	// campaign-sweep's layers.
	{"campaign.overhead_ms_per_run", "ms", "lower", 0},
	{"campaign.analyze_ms", "ms", "lower", 0},
	{"capture.write_mb_per_s", "MB/s", "higher", 0},
	{"capture.parse_mb_per_s", "MB/s", "higher", 0},
	{"spec.parse_us", "us", "lower", 0},
	{"hedera.estimate_ms", "ms", "lower", 0},
	{"hedera.gff_ms", "ms", "lower", 0},
}
