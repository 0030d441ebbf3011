package maya

import (
	"context"
	"fmt"

	"maya/internal/core"
	"maya/internal/workload"
)

// CaptureCacheStats is a snapshot of CaptureCache accounting: hits
// (lookups served by a completed or in-flight capture), misses,
// evictions (the LRU bound or Purge), errors (failed or cancelled
// captures, dropped so later lookups retry) and current entries.
type CaptureCacheStats = core.CaptureCacheStats

// CaptureCache memoizes Trace captures across calls, keyed by a
// canonical workload fingerprint (workload.Fingerprinter) plus the
// cluster and every capture-relevant option. Emulation and collation
// are the expensive half of a prediction; with a capture cache,
// repeated evaluations of the same topology — across Predict calls,
// PredictBatch sweeps and FindRecipe trials — pay them once.
//
// Captures are immutable, so cached entries are shared, not copied.
// Exactly one caller captures per key; concurrent callers of the same
// key wait for the in-flight capture (honoring their own ctx). The
// cache is bounded: least-recently-used entries are evicted beyond
// the configured capacity. All methods are safe for concurrent use.
//
// Inject one with WithCaptureCache; predictors without it capture
// per call (batch-local sharing still applies inside PredictBatch).
// Workloads that do not implement workload.Fingerprinter bypass the
// cache.
type CaptureCache struct {
	impl *core.CaptureLRU
}

// NewCaptureCache returns an empty cache bounded to maxEntries
// captures (minimum 1). Size it to the working set of distinct
// topologies: a capture of a large job holds its full collated trace,
// so the bound is what keeps hyperscale sweeps from retaining every
// candidate ever evaluated.
func NewCaptureCache(maxEntries int) *CaptureCache {
	return &CaptureCache{impl: core.NewCaptureLRU(maxEntries)}
}

// Stats returns a snapshot of the cache counters.
func (c *CaptureCache) Stats() CaptureCacheStats { return c.impl.Stats() }

// Purge empties the cache, returning how many captures were dropped.
// In-flight captures are unaffected (their callers still receive
// them) but will not be cached.
func (c *CaptureCache) Purge() int { return c.impl.Purge() }

// WithCaptureCache injects the capture cache the predictor consults
// before emulating: Predict, Capture, PredictBatch and FindRecipe all
// share it, so repeated evaluations of one topology across calls
// reuse a single capture.
func WithCaptureCache(cache *CaptureCache) PredictorOption {
	return predictorOption(func(p *Predictor) { p.captures = cache })
}

// captureCacheKey builds the cache key for a workload under a call's
// capture options (captureOptions' result), reporting ok=false for
// workloads without a canonical fingerprint.
func (p *Predictor) captureCacheKey(w Workload, opts core.Options) (string, bool) {
	fp, ok := w.(workload.Fingerprinter)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s|cluster=%s/%x|seed=%d|nodedup=%t|sel=%t|topo=%q",
		fp.Fingerprint(), p.cluster.Name, p.cluster.Fingerprint(),
		opts.Seed, opts.NoDedup, opts.SelectiveLaunch, opts.Topology), true
}

// captureFor returns the capture for a workload under a call's
// capture options, consulting the predictor's capture cache when one
// is configured and the workload is fingerprintable. paid reports
// whether this call performed the emulation (cache misses and
// uncached paths) — only then should a report carry the capture's
// emulate/collate stage cost.
//
// The capture is the caller's to release: a cached one is kept (the
// cache's build keeps what it stores), so its Release does nothing;
// any other is the caller's alone, its traces still in the emulator's
// recordings, and the caller calls Release when done with it or Keep
// to hand it out.
func (p *Predictor) captureFor(ctx context.Context, opts core.Options, w Workload) (c *core.Capture, paid bool, err error) {
	if p.captures != nil {
		if key, ok := p.captureCacheKey(w, opts); ok {
			return p.captures.impl.Get(ctx, key, func() (*core.Capture, error) {
				c, err := (&core.Pipeline{Cluster: p.cluster, Opts: opts}).Capture(ctx, w)
				if err == nil {
					c.Keep()
				}
				return c, err
			})
		}
	}
	c, err = (&core.Pipeline{Cluster: p.cluster, Opts: opts}).Capture(ctx, w)
	return c, true, err
}
