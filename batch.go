package maya

import (
	"context"
	"errors"
	"reflect"
	"runtime"

	"maya/internal/core"
	"maya/internal/pool"
)

// Request is one workload evaluation in a PredictBatch call.
type Request struct {
	// Workload is the training program to predict.
	Workload Workload
	// Options carries the same per-call knobs Predict accepts
	// (WithModelFLOPs, WithDType, WithOracleAnnotation,
	// WithStallBreakdown, ...). A WithTimeline recorder must be
	// unique to its request: batch requests simulate concurrently,
	// and a recorder shared between them would interleave runs.
	Options []PredictOption
}

// BatchResult pairs one request's report with its error. Exactly one
// of the two is set: a request that fails (invalid workload,
// emulation error, cancellation) carries its own error and does not
// affect its neighbors. Out-of-memory configurations are reports, not
// errors.
type BatchResult struct {
	Report *Report
	Err    error
}

// batchConfig collects PredictBatch options.
type batchConfig struct {
	concurrency int
}

// BatchOption customizes a PredictBatch call.
type BatchOption func(*batchConfig)

// WithBatchConcurrency bounds the worker pool evaluating the batch.
// The default is runtime.GOMAXPROCS(0).
func WithBatchConcurrency(n int) BatchOption {
	return func(c *batchConfig) { c.concurrency = n }
}

// captureKey identifies requests that can share one capture: same
// workload value and same capture options (captureOptions' result:
// silicon seed, and whether every rank is kept — a fault plan forces
// that). Annotation and simulation knobs — oracle, netsim, physical
// replay, FLOPs, timelines, stall breakdowns — do not affect the
// capture and may differ freely within a group.
type captureKey struct {
	w    Workload
	opts core.Options
}

// batchCaptureKey builds the sharing key for a request from its
// capture options, reporting ok=false for workload values that cannot
// be map keys. The check is on the value, not just the type: an
// otherwise-comparable workload holding a non-comparable value in an
// interface field would panic the map insert.
func batchCaptureKey(w Workload, opts core.Options) (captureKey, bool) {
	if v := reflect.ValueOf(w); !v.IsValid() || !v.Comparable() {
		return captureKey{}, false
	}
	return captureKey{w: w, opts: opts}, true
}

// PredictBatch evaluates many workloads through a bounded worker pool
// sharing one trained estimator suite — the primitive for scenario
// sweeps ("these 500 candidate deployments, tonight") and request
// serving. Results are positional: results[i] answers reqs[i].
//
// Requests that evaluate the same workload value (with the same
// capture-relevant settings) share one capture: the emulate and
// collate stages run once and every variant — learned, oracle,
// netsim, physical replay — simulates from the same Trace artifact.
// Each capture carries its estimate plan, so the first learned
// simulate of a (capture, suite) pair resolves every unique kernel
// shape once and later requests annotate by a single table copy, and
// every replay draws its simulation engine from the process-wide
// pool instead of reallocating one.
//
// Per-request failures are isolated in their BatchResult. The
// returned error is non-nil only when the whole batch is doomed —
// ctx was cancelled, or the shared suite failed to resolve; the
// positional results are still returned, every unfinished request
// carrying that error.
func (p *Predictor) PredictBatch(ctx context.Context, reqs []Request, opts ...BatchOption) ([]BatchResult, error) {
	cfg := batchConfig{concurrency: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&cfg)
	}

	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results, ctx.Err()
	}

	// Resolve the shared suite once, up front, unless every request
	// annotates with ground truth: workers must never race into
	// training, and a batch doomed by a failing (or cancelled)
	// training should fail before any emulation starts.
	for _, r := range reqs {
		s := p.settings(r.Options)
		if r.Workload == nil || s.oracle || s.physical {
			continue
		}
		if _, err := p.resolveSuite(ctx, s); err != nil {
			for i := range results {
				results[i] = BatchResult{Err: err}
			}
			return results, err
		}
		break
	}

	// Requests that can reuse one capture meet in a batch-local memo
	// sized to hold every distinct (workload, capture-settings) key:
	// repeated workloads become a single emulate+collate, and a
	// singleton's capture path equals Predict's.
	shared := core.NewMemo[captureKey, *core.Capture](len(reqs))
	// Requests share captures through the memo, so each is released
	// only once the whole batch is done with it; captures[i] is the one
	// request i replayed.
	captures := make([]*core.Capture, len(reqs))
	defer func() {
		for _, c := range captures {
			if c != nil {
				c.Release()
			}
		}
	}()

	// Estimate sharing needs no batch-local layer: requests that share
	// a capture share its capture-attached estimate plan, so the first
	// simulate of each (capture, suite) pair resolves every unique
	// kernel shape once and the rest read the plan in place.
	err := pool.Each(ctx, len(reqs), cfg.concurrency, func(_, i int) error {
		r := reqs[i]
		if r.Workload == nil {
			results[i] = BatchResult{Err: errors.New("maya: batch request with nil workload")}
			return nil
		}
		results[i], captures[i] = p.evalBatchRequest(ctx, r.Workload, p.settings(r.Options), shared)
		return nil
	})
	if err != nil {
		// A slot is still empty when its request never started (ctx
		// was done) or panicked on the batch worker itself.
		for i := range results {
			if results[i].Report == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	return results, ctx.Err()
}

// evalBatchRequest runs one request, capturing through the batch memo
// when the workload is shareable, and returns the capture it replayed
// for PredictBatch to release. The capture itself goes through
// captureFor, so a predictor-level CaptureCache is consulted first
// (cross-call reuse) while the memo still guarantees at most one
// capture per identical workload even under cache eviction pressure.
func (p *Predictor) evalBatchRequest(ctx context.Context, w Workload, s predictSettings, shared *core.Memo[captureKey, *core.Capture]) (BatchResult, *core.Capture) {
	pipe, err := p.pipelineFor(ctx, s)
	if err != nil {
		return BatchResult{Err: err}, nil
	}
	// paid: THIS request performed the emulation — at most one per
	// key, and none on a capture-cache hit. Only its report carries
	// the capture's emulate/collate cost; the rest reused the artifact
	// and report zero, so stage timings sum correctly across the batch.
	var c *core.Capture
	paid := false
	opts := p.captureOptions(s)
	if k, ok := batchCaptureKey(w, opts); ok {
		c, _, err = shared.Get(ctx, k, func() (c *core.Capture, err error) {
			c, paid, err = p.captureFor(ctx, opts, w, false)
			return c, err
		})
	} else {
		c, paid, err = p.captureFor(ctx, opts, w, false)
	}
	if err != nil {
		return BatchResult{Err: err}, nil
	}
	rep, err := p.simulateCapture(ctx, pipe, c, s, paid)
	return BatchResult{Report: rep, Err: err}, c
}
