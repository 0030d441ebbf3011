package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"maya/internal/estimator"
	"maya/internal/hardware"
)

// TestCaptureLRUStatsConcurrent hammers the cache's mutating paths
// while other goroutines poll Stats() the way a metrics scraper
// would. Run under -race this proves the snapshot counters are safe
// lock-free reads; the final totals prove no increment was lost.
func TestCaptureLRUStatsConcurrent(t *testing.T) {
	const (
		goroutines = 8
		iters      = 200
		capacity   = 16
	)
	c := NewMemo[string, *Capture](capacity)
	ctx := context.Background()
	stub := func() (*Capture, error) { return &Capture{}, nil }

	var wg, scrapers sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers: poll stats continuously and check invariants that
	// must hold in every snapshot, torn or not. Yield between polls
	// so single-core runs don't starve the mutators.
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
				s := c.Stats()
				if s.Hits < 0 || s.Misses < 0 || s.Entries < 0 || s.Evictions < 0 {
					t.Errorf("negative counter in snapshot: %+v", s)
					return
				}
			}
		}()
	}
	// Mutators: a mix of fresh keys (misses + evictions), repeated
	// keys (hits), failures, and purges.
	var gets, fails atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					gets.Add(1)
					c.Get(ctx, fmt.Sprintf("fresh-%d-%d", g, i), stub)
				case 1:
					gets.Add(1)
					c.Get(ctx, "shared", stub)
				case 2:
					gets.Add(1)
					fails.Add(1)
					c.Get(ctx, fmt.Sprintf("fail-%d-%d", g, i), func() (*Capture, error) {
						return nil, errors.New("boom")
					})
				case 3:
					if i%40 == 3 {
						c.Purge()
					} else {
						gets.Add(1)
						c.Get(ctx, "shared", stub)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	s := c.Stats()
	// Every Get resolved as exactly one hit or miss; joining an
	// in-flight entry counts as a hit. A leader whose fn fails also
	// counts one error on top of its miss.
	if got := s.Hits + s.Misses; got != gets.Load() {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d lookups",
			s.Hits, s.Misses, got, gets.Load())
	}
	// Failing keys are unique, so every failing Get led its own
	// capture: the error count is exact.
	if s.Errors != fails.Load() {
		t.Errorf("errors = %d, want %d", s.Errors, fails.Load())
	}
	if s.Entries > capacity {
		t.Errorf("entries = %d beyond capacity %d", s.Entries, capacity)
	}
	c.Purge()
	if got := c.Stats().Entries; got != 0 {
		t.Errorf("entries after purge = %d, want 0", got)
	}
}

// TestSuiteCacheStatsConcurrent trains one real suite, then races
// cache hits, evictions, re-misses, and Stats polls against each
// other. Kept -short-skippable because eviction forces retraining.
func TestSuiteCacheStatsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	c := NewSuiteCache()
	cluster := hardware.DGXV100(1)
	oracle := DefaultOracle(cluster)
	ctx := context.Background()
	if err := c.Warm(ctx, cluster, estimator.ProfileLLM); err != nil {
		t.Fatalf("Warm: %v", err)
	}

	const goroutines, iters = 8, 50
	var wg, scrapers sync.WaitGroup
	stop := make(chan struct{})
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
			s := c.Stats()
			if s.Entries < 0 || s.Entries > 1 {
				t.Errorf("entry count snapshot = %d, want 0 or 1", s.Entries)
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g == 0 && i%25 == 13 {
					c.Evict(cluster, estimator.ProfileLLM)
					continue
				}
				if _, _, err := c.SuiteFor(ctx, cluster, oracle, estimator.ProfileLLM); err != nil {
					t.Errorf("SuiteFor: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	s := c.Stats()
	if s.Trained < 1 || s.Trained != s.Misses {
		t.Errorf("trained = %d, misses = %d: every miss trains exactly once", s.Trained, s.Misses)
	}
	if s.Hits == 0 {
		t.Error("concurrent lookups recorded no hits")
	}
	if s.Evictions < 1 {
		t.Errorf("evictions = %d, want at least 1", s.Evictions)
	}
}
