package main

// metricDecl declares one metric exactly as BENCHMARK.json lists it. The
// tables below are the program's copy of that file: a test holds the two
// equal, and every run emits every name here and nothing else.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every workload reports from untraced runs. The
// acceptance contract requires each of them on each workload, never zero,
// so this list holds only what all seven workloads can measure; the
// workload-specific headline numbers (lsu_msgs, loss_ratio, mp_over_opt,
// converge_ms, pps, transit_us_p50) are demoted to perLayer under their
// own names. So is peak_rss_mb: on the two workloads with a 15 MiB heap it
// is garbage-collector timing (30 % spread over ten seeds), and a bound is
// per metric, not per workload. So is delay_ms_mean: the contract refuses a
// time that reads the same on every run, which the converged distances of
// the ctrl-* workloads' fixed topologies do, and over ten seeds the NET1
// column at Quick length spreads 17 % against a bound that may not pass
// 25 %. Each workload's meaning of a shared name is in README.md.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"events_per_s", "1/s", higher, 0.25},
	{"delivery_ratio", "fraction", higher, 0.01},
}

// perLayer are the metrics of the traced run: probes (a layer's public
// function called in isolation; measured in every traced run, whatever the
// workload), spans and counts (zero on a workload that never enters the
// layer), the demoted workload-specific end-to-end numbers, and the ledger.
var perLayer = []metricDecl{
	// Workload-specific end-to-end numbers, measured in the traced run's
	// untraced repetition.
	{"delay_ms_mean", "ms", lower, 0},
	{"lsu_msgs", "count", lower, 0},
	{"loss_ratio", "fraction", lower, 0},
	{"mp_over_opt", "ratio", lower, 0},
	{"converge_ms", "ms", lower, 0},
	{"pps", "1/s", higher, 0},
	{"transit_us_p50", "us", lower, 0},
	// The process's maximum RSS when the untraced repetition ended, before
	// the traced one and the probes could raise it.
	{"peak_rss_mb", "MiB", lower, 0},

	{"eventq.push_pop_ns", "ns/op", lower, 0},
	{"eventq.push_pop_ns_d16k", "ns/op", lower, 0},
	{"eventq.push_pop_ns_d64", "ns/op", lower, 0},
	{"eventq.cancel_ns", "ns/op", lower, 0},
	{"eventq.allocs_per_op", "allocs/op", lower, 0},

	{"des.link_pipeline_ns", "ns/op", lower, 0},
	{"des.link_allocs_per_pkt", "allocs/op", lower, 0},
	{"des.ns_per_event", "ns", lower, 0},
	{"des.events", "count", lower, 0},

	{"router.handle_data_ns", "ns/op", lower, 0},
	{"router.handle_data_allocs", "allocs/op", lower, 0},
	{"router.handle_control_us", "us/op", lower, 0},

	{"alloc.initial_ns", "ns/op", lower, 0},
	{"alloc.adjust_ns", "ns/op", lower, 0},
	{"alloc.keys_ns", "ns/op", lower, 0},

	{"dijkstra.run_us_n10", "us/op", lower, 0},
	{"dijkstra.run_us_n160", "us/op", lower, 0},

	{"pda.run_mtu_us_n10", "us/op", lower, 0},
	{"pda.run_mtu_us_n160", "us/op", lower, 0},
	{"pda.run_mtu_allocs_n160", "allocs/op", lower, 0},
	{"pda.apply_lsu_ns", "ns/op", lower, 0},
	{"pda.apply_lsu_ns_n10", "ns/op", lower, 0},
	{"pda.visit_out_ns", "ns/op", lower, 0},
	{"pda.diff_us_n160", "us/op", lower, 0},

	{"mpda.handle_lsu_us_p50", "us", lower, 0},
	{"mpda.handle_lsu_us_p99", "us", lower, 0},
	{"mpda.busy_s", "s", lower, 0},
	{"mpda.calls", "count", lower, 0},
	{"mpda.busy_share", "fraction", lower, 0},
	{"mpda.link_event_us", "us", lower, 0},
	{"protonet.self_s", "s", lower, 0},

	{"gallager.solve_s_net1", "s", lower, 0},
	{"gallager.iterations", "count", lower, 0},

	{"experiments.fig10_s", "s", lower, 0},
	{"experiments.fig12_s", "s", lower, 0},
	{"experiments.fig14_s", "s", lower, 0},
	{"core.build_s", "s", lower, 0},
	{"core.run_s", "s", lower, 0},
	{"core.check_loop_free_s", "s", lower, 0},
	{"core.control_msgs", "count", lower, 0},
	{"core.packets_delivered", "count", higher, 0},

	{"simpool.speedup_wN", "ratio", higher, 0},
	{"despart.speedup_s2", "ratio", higher, 0},
	{"despart.identical", "count", higher, 0},

	{"telemetry.overhead_ratio", "ratio", lower, 0},
	{"telemetry.events_emitted", "count", lower, 0},
	{"telemetry.events_dropped", "count", lower, 0},
	{"telemetry.export_s", "s", lower, 0},
	{"telemetry.link_probe_ns", "ns/op", lower, 0},

	{"lsu.marshal_ns", "ns/op", lower, 0},
	{"lsu.unmarshal_ns", "ns/op", lower, 0},
	{"wire.lsu_encode_ns", "ns/op", lower, 0},
	{"wire.lsu_decode_ns", "ns/op", lower, 0},
	{"wire.data_encode_ns", "ns/op", lower, 0},
	{"wire.data_decode_ns", "ns/op", lower, 0},
	{"wire.allocs_per_frame", "allocs/op", lower, 0},

	{"transport.pipe_msgs_per_s", "1/s", higher, 0},
	{"transport.tcp_msgs_per_s", "1/s", higher, 0},
	{"transport.arq_udp_msgs_per_s", "1/s", higher, 0},
	{"transport.arq_retransmits", "count", lower, 0},
	{"transport.arq_rto_max_ms", "ms", lower, 0},

	{"dataplane.lookup_ns", "ns/op", lower, 0},
	{"dataplane.compile_us", "us/op", lower, 0},
	{"dataplane.recompile_us", "us/op", lower, 0},
	{"dataplane.compile_allocs", "allocs/op", lower, 0},
	{"dataplane.send_ns", "ns", lower, 0},
	{"dataplane.one_hop_pps", "1/s", higher, 0},
	{"dataplane.transit_us_p99", "us", lower, 0},
	{"dataplane.forwarded", "count", higher, 0},
	{"dataplane.drop_no_route", "count", lower, 0},
	{"dataplane.ttl_expired", "count", lower, 0},
	{"dataplane.looped", "count", lower, 0},
	{"dataplane.split_error_max", "fraction", lower, 0},

	{"node.mesh_boot_ms", "ms", lower, 0},
	{"node.converge_clean_ms", "ms", lower, 0},
	{"node.converge_ms_p90", "ms", lower, 0},
	{"node.boot_retries", "count", lower, 0},
	{"node.check_loop_free_us", "us", lower, 0},
	{"node.hash_us", "us", lower, 0},

	{"harness.gen_late_us_p99", "us", lower, 0},
	{"harness.trace_overhead_ratio", "ratio", lower, 0},
	{"harness.poll_count", "count", lower, 0},

	{"ledger.eventq_share", "fraction", lower, 0},
	{"ledger.des_share", "fraction", lower, 0},
	{"ledger.router_share", "fraction", lower, 0},
	{"ledger.pda_share", "fraction", lower, 0},
	{"ledger.mpda_share", "fraction", lower, 0},
	{"ledger.gallager_share", "fraction", lower, 0},
	{"ledger.unattributed_share", "fraction", lower, 0},
}

// unitOf maps every declared metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
