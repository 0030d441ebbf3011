package main

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values. Units come from the
// definitions below, so a name cannot be reported under two units.
type metrics map[string]metricValue

var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEndMetrics {
		u[d.name] = d.unit
	}
	for _, d := range layerMetrics {
		u[d.name] = d.unit
	}
	return u
}()

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// metricDef declares a metric; BENCHMARK.json repeats these names and
// units and the smoke test keeps the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of Maya sees, reported by every
// workload from the untraced run.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"pred_err_pct", "%"},
	{"setup_s", "s"},
}

// layerMetrics are the per-layer numbers of the traced run, named
// <module>.<metric>. Each is measured by the workload that is the
// layer's home (see README.md) and reads 0 on the others: the
// contract wants every layer metric from every traced run.
var layerMetrics = []metricDef{
	// predict-cold: the capture → annotate → simulate ladder.
	{"emulator.emulate_ms", "ms"},
	{"emulator.rank_ms", "ms"},
	{"emulator.trace_kops_per_s", "kops/s"},
	{"emulator.alloc_mb_per_rank", "MB"},
	{"core.rank_emulations_per_capture", "count"},
	{"collator.unique_worker_ratio", "ratio"},
	{"collator.collate_ms", "ms"},
	{"estimator.plan_build_ms", "ms"},
	{"estimator.kernel_ns", "ns"},
	{"estimator.plan_fill_us", "us"},
	{"core.capture_ms", "ms"},
	{"core.simulate_first_ms", "ms"},
	{"core.simulate_warm_ms", "ms"},
	{"core.predict_ms", "ms"},
	{"core.ladder_sim_ms", "ms"},
	{"core.residual_ms", "ms"},
	{"core.residual_frac", "ratio"},
	// replay-fullworld: the engine and what runs on top of it.
	{"netsim.plan_us", "us"},
	{"netsim.congestion_build_ms", "ms"},
	{"sim.run_ms_w4", "ms"},
	{"sim.run_ms_w64", "ms"},
	{"sim.run_ms_w256", "ms"},
	{"sim.mops_per_s", "Mops/s"},
	{"sim.alloc_kb_per_run", "kB"},
	{"sim.congestion_ms", "ms"},
	{"sim.observer_ms", "ms"},
	{"sim.oracle_annotate_ms", "ms"},
	{"faults.evaluate_ms", "ms"},
	{"faults.engine_runs_per_eval", "count"},
	// search-warm: trial accounting of the timed searches.
	{"search.trials_per_s", "1/s"},
	{"search.cold_trials_per_s", "1/s"},
	{"search.executed_frac", "ratio"},
	{"search.verdict_frac", "ratio"},
	{"search.dominated_frac", "ratio"},
	{"search.cached_frac", "ratio"},
	{"search.pruned_frac", "ratio"},
	// serve-mixed: the service path and the facade calls under it.
	{"maya.predict_batch_ms", "ms"},
	{"maya.trace_write_ms", "ms"},
	{"maya.trace_read_ms", "ms"},
	{"maya.trace_kb", "kB"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.trace_roundtrip_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.degraded_frac", "ratio"},
	// Every workload.
	{"core.capture_cache_hit_ratio", "ratio"},
	{"forest.train_suite_ms", "ms"},
	{"stage.emulate_frac", "ratio"},
	{"stage.collate_frac", "ratio"},
	{"stage.estimate_frac", "ratio"},
	{"stage.simulate_frac", "ratio"},
	{"runtime.gc_per_op", "count"},
	{"runtime.sys_cpu_frac", "ratio"},
	{"runtime.minor_faults_per_op", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.p50_mode_share", "ratio"},
	{"bench.p90_mode_share", "ratio"},
}
