package core

import (
	"context"
	"sync"
	"testing"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

// learnedCapture builds a small capture plus a learned-suite pipeline
// (the path that exercises capture-attached estimate plans).
func learnedCapture(t *testing.T) (*Pipeline, *Capture) {
	t.Helper()
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{SelectiveLaunch: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
	c, err := p.Capture(context.Background(), m)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if c.OOM {
		t.Fatal("test capture unexpectedly OOM")
	}
	return p, c
}

func TestSimulateViaPlanDeterministicAndConcurrent(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()

	base, err := p.Simulate(ctx, c, 1e15, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent Simulates share the capture's plan; all must agree
	// with the first (plan-building) call bit for bit.
	const n = 8
	reports := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = p.Simulate(ctx, c, 1e15, hardware.BF16)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent Simulate %d: %v", i, errs[i])
		}
		if zeroStages(reports[i]) != zeroStages(base) {
			t.Fatalf("concurrent Simulate %d diverged:\n got %+v\nwant %+v",
				i, zeroStages(reports[i]), zeroStages(base))
		}
	}
	entries := c.plans.Stats().Entries
	if entries != 1 {
		t.Fatalf("capture caches %d plans, want 1 (one suite)", entries)
	}
}

func TestPlanForSingleFlightAndPerSuite(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()

	p1, err := c.planFor(ctx, p.Suite)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.planFor(ctx, p.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated planFor for one suite built a second plan")
	}

	// A distinct suite identity gets its own plan.
	other := p.Suite.WithCollectiveEstimator(nil)
	p3, err := c.planFor(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct suites share one plan entry")
	}
	entries := c.plans.Stats().Entries
	if entries != 2 {
		t.Fatalf("capture caches %d plans, want 2", entries)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()
	// Simulate repeated estimator-cache retraining: every wrap mints a
	// distinct suite identity. The capture must not retain them all.
	for i := 0; i < maxPlansPerCapture+4; i++ {
		if _, err := c.planFor(ctx, p.Suite.WithCollectiveEstimator(nil)); err != nil {
			t.Fatal(err)
		}
	}
	c.plans.mu.Lock()
	entries, order := c.plans.entries.Len(), 0
	for range c.plans.entries.All() {
		order++
	}
	c.plans.mu.Unlock()
	if entries > maxPlansPerCapture || order != entries {
		t.Fatalf("plan cache holds %d entries (%d ordered), want <= %d and equal",
			entries, order, maxPlansPerCapture)
	}
}

func TestPlanForCancellationRetries(t *testing.T) {
	p, c := learnedCapture(t)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.planFor(cancelled, p.Suite); err != context.Canceled {
		t.Fatalf("planFor(cancelled) = %v, want context.Canceled", err)
	}
	// The failed build is not cached: a live context builds cleanly.
	plan, err := c.planFor(context.Background(), p.Suite)
	if err != nil {
		t.Fatalf("planFor after cancellation: %v", err)
	}
	if plan == nil || plan.Ops() == 0 {
		t.Fatal("rebuilt plan is empty")
	}
}
