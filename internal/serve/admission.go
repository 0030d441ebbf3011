package serve

import (
	"errors"
	"sync"
	"time"

	"maya/internal/lru"
)

// Admission errors, matchable with errors.Is. The handler layer maps
// them to 429 (throttled) and 503 (queue full).
var (
	// ErrThrottled marks a request rejected by its tenant's token
	// bucket: the tenant is over its sustained rate and burst.
	ErrThrottled = errors.New("serve: tenant over rate limit")
	// ErrQueueFull marks a request rejected because the service-wide
	// admission queue is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
)

// maxTenantBuckets bounds the tenant-bucket map; a new tenant beyond
// it pushes out the longest-idle bucket. A dropped bucket regenerates
// at full burst, which only ever favors the returning tenant.
const maxTenantBuckets = 4096

// Admission is the front door of the service: a per-tenant token
// bucket (fairness — one hot tenant cannot starve the rest) in front
// of a bounded service-wide slot count (backpressure — beyond it,
// load-shed with 503 rather than queue without bound). Both checks
// are synchronous and non-blocking: an admitted request holds its
// slot until release; a rejected one costs nothing downstream.
type Admission struct {
	slots chan struct{}

	rate  float64 // tokens per second per tenant; <= 0 disables
	burst float64

	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	buckets *lru.Map[string, *tokenBucket] // recency order is idle order
}

// tokenBucket is one tenant's refillable allowance.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds an admission gate with the given total slot
// capacity (minimum 1) and per-tenant rate/burst. rate <= 0 disables
// tenant throttling (every tenant passes straight to the slot check).
func NewAdmission(capacity int, rate float64, burst int) *Admission {
	if capacity < 1 {
		capacity = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &Admission{
		slots:   make(chan struct{}, capacity),
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: lru.New[string, *tokenBucket](maxTenantBuckets, nil),
	}
}

// Admit charges the tenant n tokens (a batch of k predictions costs
// k) and claims one service slot. On success it returns the release
// function the caller must invoke when the request completes; on
// failure it returns ErrThrottled or ErrQueueFull and nothing is
// held.
func (a *Admission) Admit(tenant string, n int) (release func(), err error) {
	if n < 1 {
		n = 1
	}
	if !a.allow(tenant, float64(n)) {
		return nil, ErrThrottled
	}
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	default:
		return nil, ErrQueueFull
	}
}

// allow runs the tenant's token bucket: refill by elapsed time, then
// spend n if covered. A tenant over its allowance is refused but its
// bucket still refills — fairness is per unit time, not per attempt.
func (a *Admission) allow(tenant string, n float64) bool {
	if a.rate <= 0 {
		return true
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets.Get(tenant)
	if !ok {
		// A newcomer first sweeps out the buckets idle long enough to
		// have refilled to full burst (dropping those changes nothing);
		// at the bound, Put then evicts the longest-idle one regardless.
		idle := time.Duration(float64(time.Second) * a.burst / a.rate)
		for t, old := range a.buckets.All() {
			if now.Sub(old.last) <= idle {
				break
			}
			a.buckets.Remove(t)
		}
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets.Put(tenant, b)
	}
	b.tokens = min(a.burst, b.tokens+a.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Depth reports how many admitted requests currently hold slots.
func (a *Admission) Depth() int { return len(a.slots) }

// Capacity reports the total slot capacity.
func (a *Admission) Capacity() int { return cap(a.slots) }
