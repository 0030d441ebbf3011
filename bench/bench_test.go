package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's
// own declarations equal: same workloads, same metric names and
// units, inside the contract's limits.
func TestManifestMatchesHarness(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("manifest declares %d workloads, the harness has %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: manifest %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, declared []manifestMetric, defs []metricDef, limit int) {
		if len(declared) > limit {
			t.Errorf("%d %s metrics, the contract allows %d", len(declared), kind, limit)
		}
		if len(declared) != len(defs) {
			t.Fatalf("manifest declares %d %s metrics, the harness emits %d", len(declared), kind, len(defs))
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s metric %d: manifest %s [%s], harness %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}
	same("end-to-end", man.EndToEnd, endToEndMetrics, 16)
	same("per-layer", man.PerLayer, layerMetrics, 128)
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload at a few ops: set-up, check pass (the
// Predict ≡ Capture+Simulate ≡ ladder, HTTP ≡ direct and Parallel 1 ≡
// nproc equivalences), one timed cycle, and — unless -short — the
// traced run with its layer ladder and span file. Timings at this
// size mean nothing; the test pins plumbing and checks.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, tiny: true}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct %t, %d of %d ops failed: %s", res.Correct, res.Failed, res.Attempted, res.Error)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s: %+v (present %t); it must be positive and in %s", d.name, v, ok, d.unit)
				}
			}
			if res.P50Share < minModeShare || res.P90Share < minModeShare {
				t.Errorf("mix rule: p50 window %.0f%% %s, p90 window %.0f%% %s", 100*res.P50Share, res.P50Class, 100*res.P90Share, res.P90Class)
			}
			if testing.Short() {
				return
			}

			cfg.trace, cfg.traceOut = true, filepath.Join(t.TempDir(), "spans.json")
			traced, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run: correct %t, %d ops failed: %s", traced.Correct, traced.Failed, traced.Error)
			}
			if traced.Digest != res.Digest {
				t.Errorf("result_digest %s in the traced run, %s in the untraced one", traced.Digest, res.Digest)
			}
			if len(traced.Metrics) != len(layerMetrics) {
				t.Errorf("traced run emitted %d metrics, want %d", len(traced.Metrics), len(layerMetrics))
			}
			for _, d := range layerMetrics {
				if v, ok := traced.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("layer metric %s: %+v (present %t)", d.name, v, ok)
				}
			}
			for _, home := range homeMetrics[name] {
				if traced.Metrics[home].Value == 0 {
					t.Errorf("layer metric %s reads 0 on its home workload", home)
				}
			}
			if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// homeMetrics names, per workload, layer metrics its traced run must
// have measured.
var homeMetrics = map[string][]string{
	"predict-cold":     {"emulator.rank_ms", "collator.collate_ms", "estimator.plan_build_ms", "estimator.kernel_ns", "core.predict_ms", "core.capture_ms", "stage.emulate_frac"},
	"replay-fullworld": {"sim.run_ms_w4", "sim.run_ms_w64", "sim.congestion_ms", "sim.observer_ms", "netsim.plan_us", "faults.evaluate_ms", "faults.engine_runs_per_eval", "stage.simulate_frac"},
	"search-warm":      {"search.trials_per_s", "search.cold_trials_per_s", "search.executed_frac", "core.capture_cache_hit_ratio"},
	"serve-mixed":      {"serve.hit_p50_ms", "serve.miss_p50_ms", "serve.batch_p50_ms", "serve.trace_roundtrip_ms", "maya.predict_batch_ms", "maya.trace_kb", "core.capture_cache_hit_ratio"},
}

// TestQuartileSpread pins the spread rule to the values Python's
// statistics.quantiles(v, n=4) gives, which the benchmark contract
// is written in.
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 10}
	// quantiles → [10.0, 11.25, 12.625]; median 11.25.
	if got, want := quartileSpread(v), (12.625-10.0)/11.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// Three values clamp at the upper end: quantiles → [1, 2, 4].
	if got, want := quartileSpread([]float64{4, 1, 2}), (4.0-1.0)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value: spread %v", got)
	}
}
