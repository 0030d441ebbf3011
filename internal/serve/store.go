package serve

import (
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"

	"maya"
	"maya/internal/lru"
)

// TraceMeta describes one stored trace, the JSON shape /v1/capture
// and /v1/traces answer with.
type TraceMeta struct {
	// Fingerprint is the opaque handle GET /v1/traces/{fingerprint}
	// accepts.
	Fingerprint string `json:"fingerprint"`
	// Workload and Cluster identify what was captured where.
	Workload string `json:"workload"`
	Cluster  string `json:"cluster"`
	// TotalWorkers / UniqueWorkers are the world size and the ranks
	// actually emulated after dedup.
	TotalWorkers  int `json:"total_workers"`
	UniqueWorkers int `json:"unique_workers"`
	// PeakMemBytes / OOM carry the memory verdict.
	PeakMemBytes int64 `json:"peak_mem_bytes"`
	OOM          bool  `json:"oom,omitempty"`
	// SizeBytes is the serialized trace size.
	SizeBytes int `json:"size_bytes"`
}

// metaOf describes a trace stored under fingerprint fp in size
// serialized bytes.
func metaOf(fp string, tr *maya.Trace, size int) TraceMeta {
	return TraceMeta{
		Fingerprint:   fp,
		Workload:      tr.Workload(),
		Cluster:       tr.Cluster(),
		TotalWorkers:  tr.TotalWorkers(),
		UniqueWorkers: tr.UniqueWorkers(),
		PeakMemBytes:  tr.PeakMemBytes(),
		OOM:           tr.OOM(),
		SizeBytes:     size,
	}
}

// traceStore is a bounded LRU of serialized traces keyed by
// fingerprint: captures made through /v1/capture and uploads accepted
// by POST /v1/traces, served back by GET /v1/traces/{fingerprint}.
// Entries hold the serialized bytes (immutable), so serving a trace
// is one map lookup and one write.
type traceStore struct {
	mu      sync.Mutex
	entries *lru.Map[string, *storedTrace]

	// evictions counts entries dropped at capacity; onEvict, when
	// set, observes each one (metrics + logging — it must not
	// re-enter the store, as it runs under the lock).
	evictions atomic.Int64
	onEvict   func(meta TraceMeta)
}

type storedTrace struct {
	raw  []byte
	meta TraceMeta
}

// newTraceStore returns an empty store bounded to maxEntries
// (minimum 1).
func newTraceStore(maxEntries int) *traceStore {
	s := &traceStore{}
	s.entries = lru.New(maxEntries, func(_ string, st *storedTrace) {
		s.evictions.Add(1)
		if s.onEvict != nil {
			s.onEvict(st.meta)
		}
	})
	return s
}

// put stores a serialized trace under its fingerprint, evicting the
// least-recently-used entries beyond capacity. Re-putting an existing
// fingerprint refreshes it.
func (s *traceStore) put(raw []byte, meta TraceMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries.Put(meta.Fingerprint, &storedTrace{raw: raw, meta: meta})
}

// Evictions counts entries dropped at capacity since boot.
func (s *traceStore) Evictions() int64 { return s.evictions.Load() }

// get returns the stored trace for a fingerprint, refreshing its
// recency.
func (s *traceStore) get(fp string) (*storedTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries.Get(fp)
}

// len reports how many traces are stored.
func (s *traceStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries.Len()
}

// fingerprintOf derives the opaque store handle from any canonical
// identity string (a capture key, or raw uploaded bytes).
func fingerprintOf(identity []byte) string {
	h := fnv.New64a()
	h.Write(identity)
	return strconv.FormatUint(h.Sum64(), 16)
}
