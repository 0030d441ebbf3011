package core

import (
	"context"
	"sync"
	"sync/atomic"

	"maya/internal/flight"
	"maya/internal/lru"
)

// Memo is core's one memoizing cache — captures, trained suites and
// estimate plans are all instances of it: a bounded recency map of
// single-flight calls. Exactly one caller computes per key;
// concurrent lookups of an in-flight key wait on it, honoring their
// own context; a failed or cancelled computation is dropped so the
// next lookup retries; a successful one stays until the bound pushes
// it out. An entry evicted mid-computation still reaches the callers
// already waiting on it; the result is simply no longer cached.
//
// The accounting counters are atomics, so Stats is lock-free: a
// metrics endpoint polling it continuously never contends with
// lookups or in-flight computations. Create with NewMemo.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries *lru.Map[K, *flight.Call[V]]

	hits, misses, evictions, errors atomic.Int64
	entryCount                      atomic.Int64 // mirrors entries.Len()
}

// MemoStats is a snapshot of Memo accounting.
type MemoStats struct {
	// Hits counts lookups served by a completed (or in-flight) entry.
	Hits int64
	// Misses counts lookups that had to run the computation.
	Misses int64
	// Evictions counts entries dropped by the bound, Evict or Purge.
	Evictions int64
	// Errors counts computations that failed (including
	// cancellations); failed entries are dropped so later lookups
	// retry.
	Errors int64
	// Entries is the number of entries currently cached.
	Entries int
}

// NewMemo returns an empty cache bounded to maxEntries (minimum 1).
func NewMemo[K comparable, V any](maxEntries int) *Memo[K, V] {
	m := &Memo[K, V]{}
	m.entries = lru.New(maxEntries, func(K, *flight.Call[V]) { m.evictions.Add(1) })
	return m
}

// Get returns the value for key, running fn if nobody has yet. paid
// reports whether THIS call ran fn. Finding an entry, finished or
// still in flight, is a hit; registering one is a miss.
func (m *Memo[K, V]) Get(ctx context.Context, key K, fn func() (V, error)) (v V, paid bool, err error) {
	v, shared, err := flight.Do(ctx,
		func() (*flight.Call[V], bool) {
			m.mu.Lock()
			defer m.mu.Unlock()
			if call, ok := m.entries.Get(key); ok {
				m.hits.Add(1)
				return call, false
			}
			call := flight.NewCall[V]()
			m.entries.Put(key, call)
			m.misses.Add(1)
			m.entryCount.Store(int64(m.entries.Len()))
			return call, true
		},
		fn,
		func(call *flight.Call[V], err error) {
			if err == nil {
				return
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			m.errors.Add(1)
			// Drop the failed entry only if it is still ours (an
			// eviction racing with fn may have removed or replaced it).
			if cur, ok := m.entries.Peek(key); ok && cur == call {
				m.entries.Remove(key)
				m.entryCount.Store(int64(m.entries.Len()))
			}
		})
	return v, !shared, err
}

// Evict removes key's entry, reporting whether one was present.
// Lookups already waiting on it are unaffected.
func (m *Memo[K, V]) Evict(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.entries.Remove(key) {
		return false
	}
	m.entryCount.Store(int64(m.entries.Len()))
	m.evictions.Add(1)
	return true
}

// Purge empties the cache and returns how many entries were dropped.
func (m *Memo[K, V]) Purge() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.entries.Len()
	for key := range m.entries.All() {
		m.entries.Remove(key)
	}
	m.entryCount.Store(0)
	m.evictions.Add(int64(n))
	return n
}

// Stats returns a snapshot of the counters. Each is read atomically
// and individually, so a snapshot taken mid-update may be transiently
// skewed by one in-flight operation.
func (m *Memo[K, V]) Stats() MemoStats {
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Errors:    m.errors.Load(),
		Entries:   int(m.entryCount.Load()),
	}
}
