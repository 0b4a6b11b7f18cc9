package main

// The metric catalogue. BENCHMARK.json lists exactly these names, units,
// directions and bounds (TestCatalogueMatchesBenchmarkJSON holds the two
// together); the README's glossary says what each one means per
// workload.

// metricDef is one metric of the benchmark.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, share of the median
	exact  bool    // per-layer only: a count that must repeat exactly
}

// endToEnd is what a user of the system would see, reported by every
// workload of an untraced run. Time-based metrics carry the widest
// bound: on the shared two-core reference box their run-to-run spread
// is 5-14 % of the median on a quiet host and twice that beside a busy
// neighbour, and a bound inside the noise gates nothing.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.03},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.03},
	{name: "heap_live_end_mb", unit: "MB", better: "lower", bound: 0.05},
}

// perLayer is what the traced run reports, layer by layer. A workload
// that bypasses a layer reports that layer's metrics as zero.
var perLayer = []metricDef{
	{name: "api.accept_samples_us", unit: "us", better: "lower"},
	{name: "api.accept_runs_us", unit: "us", better: "lower"},
	{name: "api.accept_events_us", unit: "us", better: "lower"},
	{name: "api.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "api.apply_samples_us", unit: "us", better: "lower"},
	{name: "api.apply_runs_us", unit: "us", better: "lower"},
	{name: "api.http_overhead_us", unit: "us", better: "lower"},
	{name: "api.post_p50_ms", unit: "ms", better: "lower"},
	{name: "api.post_tail_ms", unit: "ms", better: "lower"},
	{name: "api.queue_depth_max", unit: "count", better: "lower"},
	{name: "api.rejected_429", unit: "count", better: "lower"},
	{name: "api.incidents_get_ms", unit: "ms", better: "lower"},
	{name: "metrics.append_ns_per_sample", unit: "ns", better: "lower"},
	{name: "metrics.bytes_per_sample", unit: "B", better: "lower"},
	{name: "metrics.window_stats_ns", unit: "ns", better: "lower"},
	{name: "metrics.truncate_ms", unit: "ms", better: "lower"},
	{name: "metrics.samples_live_end", unit: "count", better: "lower", exact: true},
	{name: "monitor.observe_ns_per_run", unit: "ns", better: "lower"},
	{name: "monitor.events_minted", unit: "count", better: "lower", exact: true},
	{name: "monitor.gate_release_us", unit: "us", better: "lower"},
	{name: "monitor.gate_pending_max", unit: "count", better: "lower", exact: true},
	{name: "monitor.low_watermark_ns", unit: "ns", better: "lower"},
	{name: "service.submitted", unit: "count", better: "lower", exact: true},
	{name: "service.completed", unit: "count", better: "higher", exact: true},
	{name: "service.deduped", unit: "count", better: "lower", exact: true},
	{name: "service.rejected", unit: "count", better: "lower", exact: true},
	{name: "service.failed", unit: "count", better: "lower", exact: true},
	{name: "service.apg_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.sd_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.drain_ms_per_event", unit: "ms", better: "lower"},
	{name: "service.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "service.diag_wall_p50_ms", unit: "ms", better: "lower"},
	{name: "pipeline.pd_ms", unit: "ms", better: "lower"},
	{name: "pipeline.apg_ms", unit: "ms", better: "lower"},
	{name: "pipeline.co_ms", unit: "ms", better: "lower"},
	{name: "pipeline.da_ms", unit: "ms", better: "lower"},
	{name: "pipeline.cr_ms", unit: "ms", better: "lower"},
	{name: "pipeline.facts_ms", unit: "ms", better: "lower"},
	{name: "pipeline.sd_ms", unit: "ms", better: "lower"},
	{name: "pipeline.ia_ms", unit: "ms", better: "lower"},
	{name: "pipeline.sched_overhead_ms", unit: "ms", better: "lower"},
	{name: "diag.s1_ms", unit: "ms", better: "lower"},
	{name: "diag.s2_ms", unit: "ms", better: "lower"},
	{name: "diag.s3_ms", unit: "ms", better: "lower"},
	{name: "diag.s4_ms", unit: "ms", better: "lower"},
	{name: "diag.s5_ms", unit: "ms", better: "lower"},
	{name: "diag.s6_ms", unit: "ms", better: "lower"},
	{name: "diag.s7_ms", unit: "ms", better: "lower"},
	{name: "diag.s8_ms", unit: "ms", better: "lower"},
	{name: "diag.s9_ms", unit: "ms", better: "lower"},
	{name: "diag.cached_ms", unit: "ms", better: "lower"},
	{name: "diag.allocs_per_diagnosis", unit: "count", better: "lower"},
	{name: "fleet.learner_observe_us", unit: "us", better: "lower"},
	{name: "fleet.installed", unit: "count", better: "higher", exact: true},
	{name: "fleet.validated", unit: "count", better: "higher", exact: true},
	{name: "fleet.rejected", unit: "count", better: "lower", exact: true},
	{name: "fleet.product_share", unit: "ratio", better: "lower"},
	{name: "testbed.simulate_s", unit: "s", better: "lower"},
	{name: "share.api_pct", unit: "%", better: "lower"},
	{name: "share.metrics_pct", unit: "%", better: "lower"},
	{name: "share.monitor_pct", unit: "%", better: "lower"},
	{name: "share.service_pct", unit: "%", better: "lower"},
	{name: "share.pipeline_pct", unit: "%", better: "lower"},
	{name: "share.fleet_pct", unit: "%", better: "lower"},
	{name: "share.testbed_pct", unit: "%", better: "lower"},
	{name: "latency.p75_ms", unit: "ms", better: "lower"},
	{name: "latency.tail_ms", unit: "ms", better: "lower"},
	{name: "latency.tail_percentile", unit: "%", better: "higher"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.num_gc", unit: "count", better: "lower"},
	{name: "gen.late_p95_ms", unit: "ms", better: "lower"},
	{name: "gen.watch_resolution_us", unit: "us", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// wireMetric is one metric in the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object a single-workload run prints last on
// standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// result projects the outcome onto a catalogue: every metric of it, and
// no other. A catalogue metric the run did not produce reads zero — on
// the per-layer catalogue that is a layer the workload bypasses.
func (o *outcome) result(defs []metricDef) resultLine {
	r := resultLine{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]wireMetric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = wireMetric{Value: o.metrics[d.name], Unit: d.unit}
	}
	return r
}
