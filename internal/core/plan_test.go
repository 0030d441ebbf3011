package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

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

// callCounter counts what a plan build asks the timer behind it: each
// kernel, memcpy or memset by its kind and shape content, each
// collective in total.
type callCounter struct {
	trace.Timer
	kernels     map[string]int
	shapeless   int
	collectives int
}

func (c *callCounter) EstimateKernel(op *trace.Op) time.Duration {
	if op.Shape == nil {
		c.shapeless++
	} else {
		c.kernels[shapeContent(op)]++
	}
	return c.Timer.EstimateKernel(op)
}

func (c *callCounter) EstimateCollective(op string, bytes int64, ranks []int, nranks int) time.Duration {
	c.collectives++
	return c.Timer.EstimateCollective(op, bytes, ranks, nranks)
}

// shapeContent names an op's kind and shape content, not its shape's
// identity or position.
func shapeContent(op *trace.Op) string {
	s := op.Shape
	return fmt.Sprintf("%v|%s|%v|%d|%d|%s|%v|%s", op.Kind, s.Name, s.Dims, s.Bytes, s.FLOPs, s.DType, s.Extra, s.MemKind)
}

// TestPlanPricesEachDistinctCallOnce builds plans of jobs whose shapes
// come interned by the emulator, decoded from a file, hand-built with
// no table, and interned by two workers' own tables, and a job whose
// communicators have no recorded membership. Each plan must equal the
// plain trace.Annotate walk, for the learned suite, the oracle and the
// suite's netsim view, while asking the timer once per distinct (kind,
// shape content), once per op without a shape, and once per collective
// signature: the operation, bytes and declared size, with the
// communicator when its membership is recorded and the calling rank
// when it is not.
func TestPlanPricesEachDistinctCallOnce(t *testing.T) {
	p, emulated := learnedCapture(t)
	ctx := context.Background()
	golden, err := os.ReadFile(goldenTraceV3)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadCapture(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}

	gemm := func() *trace.Shape {
		return &trace.Shape{Name: "cublasGemmEx", Dims: []int{1, 512, 512, 512}, FLOPs: 2 << 27, Bytes: 3 << 19, DType: "bf16"}
	}
	fused := func() *trace.Shape {
		return &trace.Shape{Name: "triton_fused", Dims: []int{1 << 16}, FLOPs: 1 << 20, Bytes: 1 << 18, DType: "bf16",
			Extra: map[string]float64{"triton_instrs": 12}}
	}
	copyIn := func() *trace.Shape { return &trace.Shape{Name: "MemcpyHtoD", Bytes: 1 << 20, MemKind: "HtoD"} }
	allReduce := func(comm uint64, seq, rank int) trace.Op {
		return trace.Op{Kind: trace.KindCollective, Name: "ncclAllReduce", Bytes: 1 << 22, Coll: &trace.Collective{
			Op: "ncclAllReduce", CommID: comm, Seq: seq, NRanks: 2, Rank: rank, Peer: -1, Bytes: 1 << 22}}
	}
	mkJob := func(ws ...*trace.Worker) *trace.Job {
		j, err := trace.NewJob(ws)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Hand-built: every op has a shape of its own, and two kinds share
	// one content.
	hand := &trace.Worker{Rank: 0, World: 1}
	for range 3 {
		hand.Append(trace.OpOf(trace.KindKernel, gemm()))
		hand.Append(trace.OpOf(trace.KindKernel, fused()))
		hand.Append(trace.OpOf(trace.KindMemcpy, copyIn()))
		hand.Append(trace.OpOf(trace.KindMemset, copyIn()))
		hand.Append(trace.Op{Kind: trace.KindKernel, Name: "shapeless"})
	}

	// Two workers intern the same contents in their own tables, in
	// different orders, so equal content sits at different positions
	// behind different pointers.
	interned := func(rank int, order []func() *trace.Shape) *trace.Worker {
		w := &trace.Worker{Rank: rank, World: 2}
		var tab trace.Shapes
		for seq := range 2 {
			for _, s := range order {
				w.Append(trace.OpOf(trace.KindKernel, tab.Intern(trace.KindKernel, s())))
			}
			w.Append(allReduce(1, seq, rank))
		}
		return w
	}

	// Communicator 2 has no recorded membership: its calls are priced
	// per calling rank.
	orphan := func(rank int) *trace.Worker {
		w := &trace.Worker{Rank: rank, World: 4}
		for seq := range 3 {
			w.Append(allReduce(2, seq, rank%2))
			w.Append(allReduce(3, seq, rank%2))
			w.Append(trace.OpOf(trace.KindKernel, gemm()))
		}
		return w
	}

	cases := []struct {
		name  string
		job   *trace.Job
		comms map[uint64][]int
		sizes map[uint64]int
	}{
		{"emulated", emulated.Job, emulated.Comms, emulated.CommSizes},
		{"decoded", decoded.Job, decoded.Comms, decoded.CommSizes},
		{"hand-built", mkJob(hand), nil, nil},
		{"two tables", mkJob(interned(0, []func() *trace.Shape{gemm, fused, copyIn}), interned(1, []func() *trace.Shape{copyIn, fused, gemm})),
			map[uint64][]int{1: {0, 1}}, map[uint64]int{1: 2}},
		{"no membership", mkJob(orphan(0), orphan(1), orphan(2)), map[uint64][]int{3: {0, 2}}, map[uint64]int{3: 2}},
	}
	timers := planTimers(p)
	timers["netsim"] = p.Suite.WithCollectiveEstimator(netsim.New(p.Cluster))
	for _, tc := range cases {
		// What the plan may ask: each content once, each op without a
		// shape, each collective signature once.
		contents, shapeless, sigs := map[string]bool{}, 0, map[string]bool{}
		for _, w := range tc.job.Workers {
			for i := range w.Ops {
				op := &w.Ops[i]
				switch {
				case op.Kind == trace.KindCollective && op.Coll.Seq >= 0:
					c := op.Coll
					who := fmt.Sprintf("comm %d", c.CommID)
					if len(tc.comms[c.CommID]) == 0 {
						who = fmt.Sprintf("rank %d", w.Rank)
					}
					sigs[fmt.Sprintf("%s|%d|%d|%s", c.Op, c.Bytes, c.NRanks, who)] = true
				case op.Kind == trace.KindKernel || op.Kind == trace.KindMemcpy || op.Kind == trace.KindMemset:
					if op.Shape == nil {
						shapeless++
					} else {
						contents[shapeContent(op)] = true
					}
				}
			}
		}
		for name, timer := range timers {
			direct := trace.NewAnnotations(tc.job)
			if err := trace.Annotate(ctx, tc.job, tc.comms, tc.sizes, timer, direct); err != nil {
				t.Fatal(err)
			}
			count := &callCounter{Timer: timer, kernels: map[string]int{}}
			plan, err := estimator.BuildPlan(ctx, tc.job, tc.comms, tc.sizes, count)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(plan.Overlay().Table(), direct.Table()) {
				t.Errorf("%s/%s: the plan differs from trace.Annotate", tc.name, name)
			}
			for content, n := range count.kernels {
				if n != 1 {
					t.Errorf("%s/%s: priced %s %d times", tc.name, name, content, n)
				}
			}
			if len(count.kernels) != len(contents) || count.shapeless != shapeless {
				t.Errorf("%s/%s: priced %d contents and %d shapeless ops, want %d and %d",
					tc.name, name, len(count.kernels), count.shapeless, len(contents), shapeless)
			}
			if count.collectives != len(sigs) {
				t.Errorf("%s/%s: priced %d collectives, want one per signature: %d", tc.name, name, count.collectives, len(sigs))
			}
		}
	}
}
