package serve

import (
	"errors"
	"testing"
	"time"
)

// fakeClock steps time manually for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                   { return c.t }
func (c *fakeClock) advance(d time.Duration)          { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                        { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(a *Admission, c *fakeClock) *Admission { a.now = c.now; return a }

func TestAdmissionTenantTokenBucket(t *testing.T) {
	clk := newFakeClock()
	// 2 tokens/sec, burst 4, plenty of slots.
	a := withClock(NewAdmission(100, 2, 4), clk)

	// The burst admits immediately; the fifth request is throttled.
	var releases []func()
	for i := 0; i < 4; i++ {
		rel, err := a.Admit("alice", 1)
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := a.Admit("alice", 1); !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-burst admit: err = %v, want ErrThrottled", err)
	}

	// Fairness: a different tenant has its own allowance.
	if _, err := a.Admit("bob", 1); err != nil {
		t.Fatalf("other tenant throttled by alice's bucket: %v", err)
	}

	// Refill: 1s at 2 tokens/sec buys two more admissions.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if _, err := a.Admit("alice", 1); err != nil {
			t.Fatalf("post-refill admit %d: %v", i, err)
		}
	}
	if _, err := a.Admit("alice", 1); !errors.Is(err, ErrThrottled) {
		t.Fatalf("refill overshot: err = %v, want ErrThrottled", err)
	}

	// Batch charging: a batch of 3 needs 3 tokens at once.
	clk.advance(time.Second) // 2 tokens
	if _, err := a.Admit("alice", 3); !errors.Is(err, ErrThrottled) {
		t.Fatalf("batch of 3 with 2 tokens: err = %v, want ErrThrottled", err)
	}
	clk.advance(time.Second) // 4 tokens (capped at burst)
	if _, err := a.Admit("alice", 3); err != nil {
		t.Fatalf("batch of 3 with 4 tokens: %v", err)
	}
	for _, rel := range releases {
		rel()
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	a := NewAdmission(2, 0, 1) // throttling off, 2 slots

	rel1, err := a.Admit("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Admit("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Depth(); got != 2 {
		t.Fatalf("Depth = %d, want 2", got)
	}
	if _, err := a.Admit("c", 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue admit: err = %v, want ErrQueueFull", err)
	}
	rel1()
	if _, err := a.Admit("c", 1); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
}

func TestAdmissionDisabledThrottling(t *testing.T) {
	a := NewAdmission(1000, 0, 1)
	for i := 0; i < 100; i++ {
		rel, err := a.Admit("hammer", 1)
		if err != nil {
			t.Fatalf("admit %d with throttling disabled: %v", i, err)
		}
		rel()
	}
}

func TestAdmissionBucketPruning(t *testing.T) {
	clk := newFakeClock()
	a := withClock(NewAdmission(10, 1, 1), clk)

	// Fill the map to the bound with distinct tenants.
	for i := 0; i < maxTenantBuckets; i++ {
		a.allow(tenantName(i), 1)
	}
	if got := a.buckets.Len(); got != maxTenantBuckets {
		t.Fatalf("bucket count = %d, want %d", got, maxTenantBuckets)
	}
	// After everyone has fully refilled, a new tenant triggers the
	// prune and the map collapses.
	clk.advance(time.Hour)
	a.allow("fresh", 1)
	if got := a.buckets.Len(); got > 2 {
		t.Fatalf("bucket count after prune = %d, want <= 2", got)
	}
}

// TestAdmissionBucketBound: distinct live tenants — none idle long
// enough to prune — still cannot grow the map past its bound.
func TestAdmissionBucketBound(t *testing.T) {
	a := withClock(NewAdmission(10, 1, 1), newFakeClock())
	for i := 0; i < 10000; i++ {
		a.allow(tenantName(i), 1)
	}
	if got := a.buckets.Len(); got > maxTenantBuckets {
		t.Fatalf("10000 live tenants hold %d buckets, want <= %d", got, maxTenantBuckets)
	}
}

func tenantName(i int) string {
	return "tenant-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
}
