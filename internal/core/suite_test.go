package core

import (
	"context"
	"errors"
	"maps"
	"testing"

	"maya/internal/estimator"
	"maya/internal/hardware"
)

func TestSuiteCachePreCancelled(t *testing.T) {
	c := NewSuiteCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cluster := hardware.DGXV100(1)
	_, _, err := c.SuiteFor(ctx, cluster, DefaultOracle(cluster), estimator.ProfileLLM)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SuiteFor with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The failed lookup must not poison the cache.
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("cancelled lookup left %d entries", s.Entries)
	}
}

func TestSuiteCacheWarmCancelled(t *testing.T) {
	c := NewSuiteCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Warm(ctx, hardware.DGXV100(1), estimator.ProfileLLM); !errors.Is(err, context.Canceled) {
		t.Fatalf("Warm with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSuiteCacheStatsAndEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	c := NewSuiteCache()
	cluster := hardware.DGXV100(1)
	ctx := context.Background()

	if err := c.Warm(ctx, cluster, estimator.ProfileLLM); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Trained != 1 || s.Entries != 1 || s.Hits != 0 {
		t.Fatalf("after warm: %+v", s)
	}

	// Second lookup is a hit and returns the identical suite.
	s1, _, err := c.SuiteFor(ctx, cluster, DefaultOracle(cluster), estimator.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := c.SuiteFor(ctx, cluster, DefaultOracle(cluster), estimator.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("cache returned distinct suites for the same key")
	}
	s = c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Trained != 1 {
		t.Fatalf("after hits: %+v", s)
	}

	// Eviction empties the cache; a different kind was never present.
	if c.Evict(cluster, estimator.ProfileVision) {
		t.Fatal("evicted an entry that was never cached")
	}
	if !c.Evict(cluster, estimator.ProfileLLM) {
		t.Fatal("failed to evict the cached suite")
	}
	s = c.Stats()
	if s.Entries != 0 || s.Evictions != 1 {
		t.Fatalf("after evict: %+v", s)
	}
}

// TestSuiteCacheKeysOnHardware: a suite is trained on the silicon of
// the whole cluster description, so two clusters sharing a name but
// not their GPUs get one suite each, and the same cluster again hits.
func TestSuiteCacheKeysOnHardware(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	c := NewSuiteCache()
	ctx := context.Background()
	fast := hardware.DGXH100(1)
	slow := hardware.DGXH100(1)
	slow.Node.GPU.TensorTFLOPS = maps.Clone(slow.Node.GPU.TensorTFLOPS)
	for dt, v := range slow.Node.GPU.TensorTFLOPS {
		slow.Node.GPU.TensorTFLOPS[dt] = v / 4
	}
	suiteFor := func(cl hardware.Cluster) *estimator.Suite {
		t.Helper()
		s, _, err := c.SuiteFor(ctx, cl, DefaultOracle(cl), estimator.ProfileLLM)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := suiteFor(fast), suiteFor(slow)
	if a == b {
		t.Fatalf("clusters named %q with different GPUs share one suite", fast.Name)
	}
	if suiteFor(fast) != a {
		t.Fatal("the same cluster again got a different suite")
	}
	if s := c.Stats(); s.Misses != 2 || s.Trained != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want two trainings and one hit", s)
	}
}
