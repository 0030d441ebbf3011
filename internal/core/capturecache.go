package core

// CaptureLRU is the bounded, single-flight cache of Capture artifacts
// keyed by canonical capture identity (workload fingerprint, cluster,
// capture options — the caller builds the key). Captures are
// immutable, so entries are shared.
type CaptureLRU = Memo[string, *Capture]

// CaptureCacheStats is a snapshot of CaptureLRU accounting.
type CaptureCacheStats = MemoStats

// NewCaptureLRU returns an empty cache bounded to maxEntries
// (minimum 1).
func NewCaptureLRU(maxEntries int) *CaptureLRU { return NewMemo[string, *Capture](maxEntries) }
