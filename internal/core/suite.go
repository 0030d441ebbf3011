package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"maya/internal/estimator"
	"maya/internal/hardware"
	"maya/internal/silicon"
)

// CacheStats is a snapshot of SuiteCache accounting.
type CacheStats struct {
	// Hits counts lookups served by a trained (or in-flight) suite.
	Hits int64
	// Misses counts lookups that had to initiate training.
	Misses int64
	// Trained counts suites trained to completion.
	Trained int64
	// Evictions counts entries removed by Evict or Purge.
	Evictions int64
	// Errors counts training attempts that failed (including
	// cancellations); failed entries are dropped so later lookups
	// retry.
	Errors int64
	// Entries is the number of suites currently cached.
	Entries int
}

// SuiteCache memoizes trained estimator suites per (cluster hardware,
// profile kind). Profiling and forest training are the expensive part
// of setup; a cache instance makes their reuse explicit and observable:
// hit/miss/trained counters, eviction, pre-warming. The zero value is
// not usable; call NewSuiteCache.
type SuiteCache struct {
	// suites is unbounded: there is one entry per (cluster, profile
	// kind) a process ever asks for.
	suites  *Memo[string, trainedSuite]
	trained atomic.Int64
}

// trainedSuite is what one training produces.
type trainedSuite struct {
	suite *estimator.Suite
	mape  map[string]float64
}

// NewSuiteCache returns an empty cache.
func NewSuiteCache() *SuiteCache {
	return &SuiteCache{suites: NewMemo[string, trainedSuite](math.MaxInt)}
}

var defaultSuiteCache = NewSuiteCache()

// DefaultSuiteCache returns the process-wide shared cache that
// predictors use unless one is injected explicitly.
func DefaultSuiteCache() *SuiteCache { return defaultSuiteCache }

func profileKindName(k estimator.ProfileKind) string {
	switch k {
	case estimator.ProfileLLM:
		return "llm"
	case estimator.ProfileVision:
		return "vision"
	default:
		return "all"
	}
}

// suiteKey names a suite by its cluster's hardware, not just its name:
// the silicon a suite is trained on is the whole description.
func suiteKey(cluster hardware.Cluster, kind estimator.ProfileKind) string {
	return fmt.Sprintf("%s/%x/%s", cluster.Name, cluster.Fingerprint(), profileKindName(kind))
}

// SuiteFor returns the trained estimator suite for a cluster,
// profiling the synthetic silicon and training forests on first use.
// The held-out per-kernel MAPE (Tables 7-9) is returned alongside.
//
// Exactly one caller trains per key; concurrent callers wait on the
// in-flight training but honor their own ctx while doing so. A
// cancelled or failed training is not cached: the entry is dropped,
// the next lookup retries, and a waiter whose own ctx is still alive
// when the trainer's was cancelled takes over the training itself.
func (c *SuiteCache) SuiteFor(ctx context.Context, cluster hardware.Cluster, oracle *silicon.Oracle, kind estimator.ProfileKind) (*estimator.Suite, map[string]float64, error) {
	t, _, err := c.suites.Get(ctx, suiteKey(cluster, kind), func() (trainedSuite, error) {
		suite, mape, err := trainSuite(ctx, cluster, oracle, kind)
		if err == nil {
			c.trained.Add(1)
		}
		return trainedSuite{suite, mape}, err
	})
	return t.suite, t.mape, err
}

// Warm trains (or confirms) the suite for a cluster and profile kind
// without constructing a predictor, so services can pay the training
// cost at startup rather than on the first request.
func (c *SuiteCache) Warm(ctx context.Context, cluster hardware.Cluster, kind estimator.ProfileKind) error {
	_, _, err := c.SuiteFor(ctx, cluster, DefaultOracle(cluster), kind)
	return err
}

// Evict removes the cached suite for a cluster and profile kind,
// reporting whether an entry was present. Lookups already waiting on
// an in-flight training are unaffected; subsequent lookups retrain.
func (c *SuiteCache) Evict(cluster hardware.Cluster, kind estimator.ProfileKind) bool {
	return c.suites.Evict(suiteKey(cluster, kind))
}

// Purge empties the cache and returns how many entries were dropped.
func (c *SuiteCache) Purge() int { return c.suites.Purge() }

// Stats returns a snapshot of the cache counters. It is lock-free, so
// it is safe (and cheap) to poll from a metrics endpoint while
// lookups and trainings are in flight.
func (c *SuiteCache) Stats() CacheStats {
	s := c.suites.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Trained:   c.trained.Load(),
		Evictions: s.Evictions,
		Errors:    s.Errors,
		Entries:   s.Entries,
	}
}

func trainSuite(ctx context.Context, cluster hardware.Cluster, oracle *silicon.Oracle, kind estimator.ProfileKind) (*estimator.Suite, map[string]float64, error) {
	profile, err := BuildProfile(ctx, oracle, cluster, kind)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return estimator.TrainAndEvaluate(profile, cluster)
}

// DefaultOracle returns the canonical silicon instance for a cluster:
// a fixed seed, so every experiment sees the same "hardware".
func DefaultOracle(cluster hardware.Cluster) *silicon.Oracle {
	return silicon.NewOracle(cluster, silicon.DefaultSeed)
}
