package main

// Workload names. Later issues refer to them verbatim.
const (
	wBulkWrite    = "bulk_write"
	wBulkExplain  = "bulk_explain"
	wNoisyRead    = "noisy_read"
	wIncastShards = "incast_shards2"
	wCorpusCold   = "corpus_cold"
	wServeMix     = "serve_mix"
)

// metricDef describes one reported number. BENCHMARK.json repeats
// Name/Unit/Better (and Bound for end-to-end metrics); TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks a simulated count that must repeat bit-for-bit between
	// runs and commits at the same seed: a simulator speed-up leaves it
	// identical.
	Exact bool
}

// failRatio is reported by the ladder and gated by -compare (any rise
// is a regression) but is not in BENCHMARK.json: it is always 0 here,
// and the driver's contract carries it as attempted/failed instead.
const failRatio = "fail_ratio"

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Wall-clock is host time. The timing bounds are about
// three times the widest run-to-run spread seen over ten seeds on a
// 2-vCPU VM: 1-4 % in a quiet phase of the host, up to 6 % (8-9 % on
// bulk_write's op_ms_p90) in a slow one. Allocation counts repeat to
// within 1 %.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "sim_pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are single-layer numbers from the traced run. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "config.parse_us", Unit: "us", Better: "lower"},
	{Name: "orchestrator.build_us", Unit: "us", Better: "lower"},
	{Name: "orchestrator.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.simulate_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.simulate_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "sim.pkts_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.virtual_ns_per_op", Unit: "ns", Better: "lower", Exact: true},
	{Name: "traffic.msgs_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "traffic.goodput_gbps", Unit: "Gbit/s", Better: "higher", Exact: true},
	{Name: "rnic.tx_pkts_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rnic.retransmits_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rnic.ack_timeouts_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rnic.cnp_sent_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "injector.rx_roce_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "injector.mirrored_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "dumper.captured_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "dumper.discards_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "lineage.chains_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "telemetry.events_per_op", Unit: "count", Better: "lower", Exact: true},

	{Name: "packet.append_wire_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_into_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.icrc_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.port_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "injector.pipeline_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "dumper.capture_ns_per_pkt", Unit: "ns", Better: "lower"},

	{Name: "trace.reconstruct_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.reconstruct_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "trace.write_pcap_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.write_artifacts_ms", Unit: "ms", Better: "lower"},
	{Name: "lineage.build_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzer.verdicts_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.on_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "inband.on_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "coverage.on_cost_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.fabric_s1_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.fabric_shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.fabric_big_s1_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.fabric_big_s2_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.fabric_big_shard_speedup", Unit: "ratio", Better: "higher"},

	{Name: "engine.workers2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "corpus.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "corpus.cells_failed", Unit: "count", Better: "lower"},
	{Name: "resultcache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "resultcache.render_ms", Unit: "ms", Better: "lower"},
	{Name: "resultcache.artifact_kb", Unit: "KiB", Better: "lower"},
	{Name: "resultcache.get_ms", Unit: "ms", Better: "lower"},
	{Name: "resultcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "resultcache.warm_replay_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.artifact_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},

	{Name: "host.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "host.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "host.calibration_ns", Unit: "ns", Better: "lower"},
	{Name: "host.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// observeOnly are the exact counts that must agree between bulk_write
// and bulk_explain, and between incast_shards2 and its Shards=1 probe:
// turning on an observer or a shard must not change the simulated
// history.
var observeOnly = []string{
	"sim.pkts_per_op", "sim.events_per_op", "sim.virtual_ns_per_op", "traffic.goodput_gbps",
}
