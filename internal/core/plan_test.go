package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
	"maya/internal/trace"
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
	entries := c.derived.Stats().Entries
	if entries != 1 {
		t.Fatalf("capture caches %d plans, want 1 (one suite)", entries)
	}
}

// planTimers are the two kinds of timer a capture plans for.
func planTimers(p *Pipeline) map[string]trace.Timer {
	return map[string]trace.Timer{"suite": p.Suite, "oracle": DefaultOracle(p.Cluster)}
}

func TestPlanForSingleFlightAndPerSuite(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()

	// Concurrent first callers (CI runs this under -race): one build
	// per (capture, timer).
	timers := planTimers(p)
	var wg sync.WaitGroup
	for name, timer := range timers {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.planFor(ctx, timer); err != nil {
					t.Errorf("planFor(%s): %v", name, err)
				}
			}()
		}
	}
	wg.Wait()
	if st := c.derived.Stats(); t.Failed() || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("capture built %d plans and caches %d, want 2 and 2", st.Misses, st.Entries)
	}

	// A plan is its timer's direct walk, kept: filling from it is
	// byte-equal to walking the job again.
	plans := map[string]*estimator.EstimatePlan{}
	for name, timer := range timers {
		direct, planned := trace.NewAnnotations(c.Job), trace.NewAnnotations(c.Job)
		if err := trace.Annotate(ctx, c.Job, c.Comms, c.CommSizes, timer, direct); err != nil {
			t.Fatal(err)
		}
		plans[name], _ = c.planFor(ctx, timer)
		if !plans[name].Fill(planned) || !slices.Equal(planned.Table(), direct.Table()) {
			t.Fatalf("%s: a plan fill differs from the direct walk", name)
		}
	}

	// Distinct timer identities get their own plans.
	other, err := c.planFor(ctx, p.Suite.WithCollectiveEstimator(nil))
	if err != nil {
		t.Fatal(err)
	}
	if plans["suite"] == plans["oracle"] || other == plans["suite"] {
		t.Fatal("distinct timers share one plan entry")
	}
	if entries := c.derived.Stats().Entries; entries != 3 {
		t.Fatalf("capture caches %d plans, want 3", entries)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()
	// Simulate repeated estimator-cache retraining and predictors that
	// come and go: every wrap mints a distinct suite identity, every
	// DefaultOracle a distinct oracle. The capture must not retain
	// them all.
	for i := 0; i < maxDerivedPerCapture+4; i++ {
		var timer trace.Timer = p.Suite.WithCollectiveEstimator(nil)
		if i%2 == 1 {
			timer = DefaultOracle(p.Cluster)
		}
		if _, err := c.planFor(ctx, timer); err != nil {
			t.Fatal(err)
		}
	}
	c.derived.mu.Lock()
	entries, order := c.derived.entries.Len(), 0
	for range c.derived.entries.All() {
		order++
	}
	c.derived.mu.Unlock()
	if entries > maxDerivedPerCapture || order != entries {
		t.Fatalf("plan cache holds %d entries (%d ordered), want <= %d and equal",
			entries, order, maxDerivedPerCapture)
	}
}

func TestPlanForCancellationRetries(t *testing.T) {
	p, c := learnedCapture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for name, timer := range planTimers(p) {
		if _, err := c.planFor(cancelled, timer); err != context.Canceled {
			t.Fatalf("planFor(%s, cancelled) = %v, want context.Canceled", name, err)
		}
		// The failed build is not cached: a live context builds cleanly.
		plan, err := c.planFor(context.Background(), timer)
		if err != nil {
			t.Fatalf("planFor(%s) after cancellation: %v", name, err)
		}
		if plan == nil || len(plan.Overlay().Table()) == 0 {
			t.Fatalf("%s: rebuilt plan is empty", name)
		}
	}

	// The congestion demand map lives in the same memo, under the same
	// rule.
	m := netsim.New(p.Cluster)
	if _, err := c.congestionFor(cancelled, m); err != context.Canceled {
		t.Fatalf("congestionFor(cancelled) = %v, want context.Canceled", err)
	}
	cm, err := c.congestionFor(context.Background(), m)
	if err != nil {
		t.Fatalf("congestionFor after cancellation: %v", err)
	}
	if len(cm.Demands) == 0 {
		t.Fatal("rebuilt congestion model is empty")
	}
	if again, _ := c.congestionFor(context.Background(), m); again != cm {
		t.Fatal("repeated congestionFor built a second model")
	}
}

// The congestion build reads a collective's rank list from the annotate
// walk's resolver, so a communicator with no recorded membership
// occupies the links of the group extrapolated from the caller's rank
// — the list silicon's TestAnnotateExpandsPartialMembership sees the
// timers handed — rather than none.
func TestMembershiplessCollectiveResolvesAlike(t *testing.T) {
	w := &trace.Worker{Rank: 0, World: 16}
	w.Append(trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
		Op: "ncclAllReduce", CommID: 6, Seq: 0, NRanks: 4, Rank: 0, Peer: -1, Bytes: 1 << 26}})
	job, _ := trace.NewJob([]*trace.Worker{w})
	m := netsim.New(hardware.DGXV100(2))
	cm, err := (&Capture{Job: job}).congestionFor(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Plan("ncclAllReduce", 1<<26, []int{0, 4, 8, 12}, 4)
	got := cm.Demands[trace.CollKeyOf(&w.Ops[0])]
	if len(want.Links) == 0 || !reflect.DeepEqual(got.Links, want.Links) || got.Lat != want.Lat.Nanoseconds() {
		t.Fatalf("membership-less collective demand = %+v, want the {0,4,8,12} group's %+v", got, want)
	}
}
