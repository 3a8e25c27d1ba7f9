package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them from its untraced run; bench/README.md says what
// each means on each workload, and SEED_RESULTS.md holds the measured
// spreads the bounds were set from (at least one and a half times the
// widest spread seen on any workload on the two-vCPU host).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"events_per_s", "events/s", higher, 0.15},
	{"e2e_p50_ms", "ms", lower, 0.15},
	{"e2e_p99_ms", "ms", lower, 0.25},
	{"allocs_per_event", "count", lower, 0.10},
	{"heap_live_mb", "MB", lower, 0.10},
	{"disk_bytes_per_user_byte", "ratio", lower, 0.02},
	{"goroutines_per_conn", "count", lower, 0.10},
}

// perLayer are the metrics of single layers (layer = package name),
// reported by the traced run.
var perLayer = []metricDef{
	{"event.encode_ns_per_event", "ns", lower, 0},
	{"event.decode_ns_per_event", "ns", lower, 0},
	{"event.decode_allocs_per_event", "count", lower, 0},

	{"wire.codec.produce_req_encode_ns", "ns", lower, 0},
	{"wire.codec.produce_req_decode_ns", "ns", lower, 0},
	{"wire.codec.fetch_resp_encode_ns", "ns", lower, 0},
	{"wire.codec.fetch_resp_decode_ns", "ns", lower, 0},

	{"wire.produce_rtt_p50_us", "us", lower, 0},
	{"wire.produce_rtt_p99_us", "us", lower, 0},
	{"wire.fetch_wait_p50_us", "us", lower, 0},
	{"wire.server_produce_p50_us", "us", lower, 0},
	{"wire.server_fetch_p50_us", "us", lower, 0},
	{"wire.session_batch_events_p50", "count", higher, 0},
	{"wire.session_pump_parks_per_kevent", "count", lower, 0},
	{"wire.session_credit_stalls_per_kevent", "count", lower, 0},
	{"wire.bytes_up_per_event", "bytes", lower, 0},
	{"wire.bytes_down_per_event", "bytes", lower, 0},
	{"wire.misroutes", "count", lower, 0},

	{"client.producer_flush_self_us", "us", lower, 0},
	{"client.consumer_poll_self_us", "us", lower, 0},
	{"client.producer_batch_events_p50", "count", higher, 0},
	{"client.poll_events_p50", "count", higher, 0},
	{"client.empty_polls_ratio", "ratio", lower, 0},

	{"broker.produce_ns_per_event", "ns", lower, 0},
	{"broker.fetch_ns_per_event", "ns", lower, 0},
	{"broker.produce_p50_us", "us", lower, 0},
	{"broker.fetch_p50_us", "us", lower, 0},
	{"broker.commit_wait_p50_us", "us", lower, 0},
	{"broker.commit_wait_p99_us", "us", lower, 0},
	{"broker.produce_batch_events_p50", "count", higher, 0},

	{"eventlog.append_mem_ns_per_event", "ns", lower, 0},
	{"eventlog.append_file_ns_per_event", "ns", lower, 0},
	{"eventlog.append_fsync_ns_per_event", "ns", lower, 0},
	{"eventlog.read_ns_per_event", "ns", lower, 0},
	{"eventlog.replay_ns_per_event", "ns", lower, 0},
	{"eventlog.disk_bytes_per_user_byte", "ratio", lower, 0},
	{"eventlog.append_p50_us", "us", lower, 0},

	{"replication.wait_committed_p50_us", "us", lower, 0},
	{"replication.wait_committed_p99_us", "us", lower, 0},
	{"replication.fetch_rtt_p50_us", "us", lower, 0},
	{"replication.fetch_batch_events_p50", "count", higher, 0},
	{"replication.hw_advance_events_p50", "count", higher, 0},
	{"replication.follower_lag_events_max", "count", lower, 0},
	{"replication.under_replicated_end", "count", lower, 0},

	{"clusternet.serve_s", "s", lower, 0},
	{"cluster.metadata_rtt_us", "us", lower, 0},

	{"pattern.match_ns_per_event", "ns", lower, 0},
	{"trigger.events_per_invocation", "count", higher, 0},
	{"trigger.filtered_ratio", "ratio", lower, 0},
	{"trigger.failures", "count", lower, 0},
	{"trigger.backlog_events_per_s", "events/s", higher, 0},

	{"process.cpu_us_per_event", "us", lower, 0},

	{"bench.gen_late_p99_ms", "ms", lower, 0},
	{"bench.trace_overhead_pct", "%", lower, 0},
	{"bench.gc_cycles", "count", lower, 0},
	{"bench.gc_pause_total_ms", "ms", lower, 0},
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func(*env) (workload, error)
	// paced marks the open-loop workloads, whose rate is an input: their
	// primary metric is median latency, the others' is throughput.
	paced bool
}
