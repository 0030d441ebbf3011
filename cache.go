package maya

import (
	"context"

	"maya/internal/core"
)

// EstimatorCache holds trained estimator suites keyed by (cluster,
// profile kind). Training a suite — microbenchmark profiling plus
// random-forest fitting — is the expensive part of predictor setup,
// so suites are shared: across predictors, across batch requests and
// across searches.
//
// The cache is an explicit handle rather than hidden process state:
// services can pre-train with Warm at startup, watch hit/miss/trained
// counters through Stats, and release the memory of suites they no
// longer need with Evict or Purge (suites are keyed by the cluster's
// fingerprint, so changed hardware never meets an old one).
// Predictors use DefaultEstimatorCache unless one is injected with
// WithEstimatorCache. All methods are safe for concurrent use.
type EstimatorCache struct {
	impl *core.SuiteCache
}

// NewEstimatorCache returns an empty, independent cache.
func NewEstimatorCache() *EstimatorCache {
	return &EstimatorCache{impl: core.NewSuiteCache()}
}

var defaultEstimatorCache = &EstimatorCache{impl: core.DefaultSuiteCache()}

// DefaultEstimatorCache returns the shared process-wide cache that
// predictors are born with.
func DefaultEstimatorCache() *EstimatorCache { return defaultEstimatorCache }

// Warm trains (or confirms) the estimator suite for a cluster and
// profile kind, so later predictions pay no training latency.
// Concurrent warms of the same key train once; the rest wait.
// Cancelling ctx aborts the training, which is then not cached — the
// next call retries.
func (c *EstimatorCache) Warm(ctx context.Context, cluster Cluster, kind ProfileKind) error {
	return c.impl.Warm(ctx, cluster, kind)
}

// Stats returns a snapshot of cache accounting: hits, misses, suites
// trained, evictions, training errors and current entries.
func (c *EstimatorCache) Stats() CacheStats { return c.impl.Stats() }

// Evict drops the suite for a cluster and profile kind, reporting
// whether one was cached. The next lookup of that key retrains.
func (c *EstimatorCache) Evict(cluster Cluster, kind ProfileKind) bool {
	return c.impl.Evict(cluster, kind)
}

// Purge empties the cache, returning how many suites were dropped.
func (c *EstimatorCache) Purge() int { return c.impl.Purge() }
