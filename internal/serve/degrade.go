package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"maya"
	"maya/internal/lru"
)

// degradeCache is the graceful-degradation layer: a bounded LRU of
// the last successfully computed report per prediction identity
// (predictKey). When the circuit breaker is open or the shedder is
// rejecting, a request whose identity has a cached result is answered
// with that stale report marked `"degraded": true` instead of an
// error — the contract being that a slightly stale prediction of a
// deterministic simulation beats a 503 for interactive what-if
// traffic. It is only consulted on the degraded path; healthy
// requests always recompute (the coalescer and capture cache below
// keep that cheap), so staleness is bounded by the length of the
// incident, not the cache's lifetime.
type degradeCache struct {
	mu      sync.Mutex
	entries *lru.Map[string, staleEntry]
	now     func() time.Time

	hits   atomic.Int64
	misses atomic.Int64
}

type staleEntry struct {
	report *maya.Report
	at     time.Time // when the fresh result was computed
}

// newDegradeCache returns an empty cache bounded to max entries
// (minimum 1).
func newDegradeCache(max int) *degradeCache {
	return &degradeCache{entries: lru.New[string, staleEntry](max, nil), now: time.Now}
}

// put records a fresh successful report for key. Reports are
// immutable once returned by the predictor, so the cache shares the
// pointer.
func (c *degradeCache) put(key string, r *maya.Report) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, staleEntry{report: r, at: c.now()})
}

// get returns the stale report for key and its age, if one is cached.
func (c *degradeCache) get(key string) (*maya.Report, time.Duration, bool) {
	c.mu.Lock()
	e, ok := c.entries.Get(key)
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	return e.report, c.now().Sub(e.at), true
}

// len reports how many identities have a cached result.
func (c *degradeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}
