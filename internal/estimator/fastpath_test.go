package estimator

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"maya/internal/hardware"
	"maya/internal/prand"
	"maya/internal/silicon"
	"maya/internal/trace"
)

// tinyProfile builds a deterministic kernel profile dense enough to
// train forests for each name, without going through the oracle.
func tinyProfile(names []string, perName int) []ProfileSample {
	rng := prand.New(5)
	var out []ProfileSample
	for _, name := range names {
		for i := 0; i < perName; i++ {
			m := int64(64 + rng.Intn(4096))
			op := trace.OpOf(trace.KindKernel, &trace.Shape{
				Name:  name,
				Dims:  []int{1, int(m), int(m), int(m)},
				FLOPs: 2 * m * m * m, Bytes: 3 * 2 * m * m, DType: "bf16",
			})
			// A deterministic, shape-dependent "measurement".
			dur := time.Duration(op.Shape.FLOPs/50000 + op.Bytes/2000 + 3000)
			out = append(out, ProfileSample{Op: op, Dur: dur})
		}
	}
	return out
}

func TestSuiteTrainingDefaultsPinned(t *testing.T) {
	// The suite-training constants. The forest package's generic
	// defaults are 24 trees / depth 14; suite training deliberately
	// overrides them, and these constants (plus this test) are what
	// keeps the two documented stories reconciled.
	if suiteTrees != 16 || suiteMaxDepth != 12 || minSamples != 40 {
		t.Errorf("suite training constants = %d trees, depth %d, %d min samples; want 16, 12, 40",
			suiteTrees, suiteMaxDepth, minSamples)
	}
}

func TestAppendKernelFeaturesMatchesKernelFeatures(t *testing.T) {
	ops := []trace.Op{
		trace.OpOf(trace.KindKernel, &trace.Shape{Name: "g", Dims: []int{1, 512, 512, 512},
			FLOPs: 1 << 28, Bytes: 1 << 20, DType: "bf16"}),
		trace.OpOf(trace.KindKernel, &trace.Shape{Name: "conv", Dims: []int{8, 64, 56, 56, 128, 3, 3, 1, 0, 54, 54},
			FLOPs: 1 << 30, Bytes: 1 << 22, DType: "fp16"}),
		trace.OpOf(trace.KindKernel, &trace.Shape{Name: "triton", Dims: []int{1 << 20},
			FLOPs: 1 << 24, Bytes: 1 << 22, DType: "fp16",
			Extra: map[string]float64{"triton_instrs": 12, "triton_loads": 3}}),
		trace.OpOf(trace.KindMemcpy, &trace.Shape{Name: "MemcpyHtoD", Bytes: 1 << 24, MemKind: "HtoD"}),
		trace.OpOf(trace.KindMemset, &trace.Shape{Name: "Memset", Bytes: 1 << 16, DType: "weird"}),
		{Kind: trace.KindKernel, Name: "shapeless"},
	}
	for i := range ops {
		want := KernelFeatures(&ops[i])
		if len(want) != featureLen {
			t.Fatalf("op %d: %d features, want %d", i, len(want), featureLen)
		}
		var buf [featureLen]float64
		got := AppendKernelFeatures(buf[:0], &ops[i])
		if !reflect.DeepEqual(want, got) {
			t.Errorf("op %d: AppendKernelFeatures = %v, KernelFeatures = %v", i, got, want)
		}
		// Appending to a non-empty dst extends rather than overwrites.
		pre := AppendKernelFeatures([]float64{7}, &ops[i])
		if pre[0] != 7 || !reflect.DeepEqual(pre[1:], want) {
			t.Errorf("op %d: append to non-empty dst corrupted the prefix", i)
		}
	}
}

func TestEstimateKernelAllocFree(t *testing.T) {
	cluster := hardware.DGXV100(1)
	s, err := TrainSuite(tinyProfile([]string{"k0"}, 80), cluster)
	if err != nil {
		t.Fatal(err)
	}
	forested := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "k0",
		Dims: []int{1, 1024, 1024, 1024}, FLOPs: 2 << 30, Bytes: 6 << 20, DType: "bf16"})
	analytical := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "never_profiled",
		FLOPs: 1 << 28, Bytes: 1 << 20, DType: "bf16"})
	if d := s.EstimateKernel(&forested); d <= 0 {
		t.Fatalf("forest estimate = %v", d)
	}
	if n := testing.AllocsPerRun(200, func() { s.EstimateKernel(&forested) }); n != 0 {
		t.Errorf("EstimateKernel (forest path) allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.EstimateKernel(&analytical) }); n != 0 {
		t.Errorf("EstimateKernel (analytical path) allocates %v/op, want 0", n)
	}
}

// planFixtureJob builds a two-worker job covering every op class the
// annotation pass distinguishes: profiled kernels (with a duplicate
// shape, interned per worker as the emulator does), the analytical
// fallback, Extra-carrying fused kernels, a kernel with no shape,
// memory ops (two of them copies equal in everything but direction,
// as a loaded trace may name them — the silicon prices those apart,
// see its TestMemcpyTimes), matched and unmatched collectives
// (one on a communicator with no recorded membership), a host gap
// and markers.
func planFixtureJob(t *testing.T) (*trace.Job, map[uint64][]int, map[uint64]int) {
	t.Helper()
	mk := func(rank int) *trace.Worker {
		w := &trace.Worker{Rank: rank, World: 2, Device: "test"}
		var shapes trace.Shapes
		dev := func(k trace.Kind, s *trace.Shape) { w.Append(trace.OpOf(k, shapes.Intern(k, s))) }
		dev(trace.KindKernel, &trace.Shape{Name: "k0",
			Dims: []int{1, 256, 256, 256}, FLOPs: 2 << 24, Bytes: 3 << 17, DType: "bf16"})
		w.Ops[0].HostGap = 5 * time.Microsecond
		dev(trace.KindKernel, &trace.Shape{Name: "k0",
			Dims: []int{1, 256, 256, 256}, FLOPs: 2 << 24, Bytes: 3 << 17, DType: "bf16"})
		dev(trace.KindKernel, &trace.Shape{Name: "unprofiled",
			FLOPs: 1 << 22, Bytes: 1 << 18, DType: "fp16"})
		for range 2 {
			dev(trace.KindKernel, &trace.Shape{Name: "fused",
				Dims: []int{1 << 18}, FLOPs: 1 << 22, Bytes: 1 << 20, DType: "fp16",
				Extra: map[string]float64{"triton_instrs": 8, "triton_loads": 2}})
		}
		w.Append(trace.Op{Kind: trace.KindKernel, Name: "k0"})
		dev(trace.KindMemcpy, &trace.Shape{Name: "MemcpyHtoD", Bytes: 1 << 20, MemKind: "HtoD"})
		dev(trace.KindMemcpy, &trace.Shape{Name: "Memcpy", Bytes: 1 << 24, MemKind: "HtoD"})
		dev(trace.KindMemcpy, &trace.Shape{Name: "Memcpy", Bytes: 1 << 24, MemKind: "DtoD"})
		w.Append(trace.Op{Kind: trace.KindCollective, Name: "ncclAllReduce", Bytes: 1 << 20,
			Coll: &trace.Collective{Op: "ncclAllReduce", CommID: 1, Seq: 0, NRanks: 2, Rank: rank, Peer: -1, Bytes: 1 << 20}})
		w.Append(trace.Op{Kind: trace.KindCollective, Name: "ncclAllReduce", Bytes: 1 << 10,
			Coll: &trace.Collective{Op: "ncclAllReduce", CommID: 1, Seq: -1, NRanks: 2, Rank: rank, Peer: -1, Bytes: 1 << 10}})
		w.Append(trace.Op{Kind: trace.KindCollective, Name: "ncclAllGather", Bytes: 1 << 16,
			Coll: &trace.Collective{Op: "ncclAllGather", CommID: 2, Seq: 0, NRanks: 2, Rank: rank, Peer: -1, Bytes: 1 << 16}})
		w.Append(trace.Op{Kind: trace.KindMark, Name: "iter"})
		return w
	}
	job, err := trace.NewJob([]*trace.Worker{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	return job, map[uint64][]int{1: {0, 1}}, map[uint64]int{1: 2}
}

func TestEstimatePlanMatchesAnnotateInto(t *testing.T) {
	cluster := hardware.DGXV100(1)
	s, err := TrainSuite(tinyProfile([]string{"k0"}, 80), cluster)
	if err != nil {
		t.Fatal(err)
	}
	job, comms, sizes := planFixtureJob(t)
	ctx := context.Background()

	for name, timer := range map[string]trace.Timer{"suite": s, "oracle": silicon.NewOracle(cluster, silicon.DefaultSeed)} {
		// The direct walk prices every op itself, no shape memo.
		direct := trace.NewAnnotations(job)
		if err := trace.Annotate(ctx, job, comms, sizes, timer, direct); err != nil {
			t.Fatal(err)
		}

		plan, err := BuildPlan(ctx, job, comms, sizes, timer)
		if err != nil {
			t.Fatal(err)
		}
		planned := trace.NewAnnotations(job)
		if !plan.Fill(planned) {
			t.Fatalf("%s: plan.Fill rejected an overlay of its own job", name)
		}
		for wi, w := range job.Workers {
			for i := range w.Ops {
				if got, want := planned.Dur(wi, i), direct.Dur(wi, i); got != want {
					t.Fatalf("%s: worker %d op %d (%v %s): plan %v != annotate %v",
						name, wi, i, w.Ops[i].Kind, w.Ops[i].Name, got, want)
				}
			}
		}
		if n := len(plan.Overlay().Table()); n != 2*len(job.Workers[0].Ops) {
			t.Fatalf("%s: plan covers %d ops, want %d", name, n, 2*len(job.Workers[0].Ops))
		}

		// The build paid the timer once per distinct (kind, content) in
		// the job (six: the workers intern the same six shapes) and once
		// per op without a shape (one per worker).
		count := &countingTimer{Timer: timer}
		if _, err := BuildPlan(ctx, job, comms, sizes, count); err != nil {
			t.Fatal(err)
		}
		if count.kernels != 6+2 {
			t.Errorf("%s: plan build priced %d device ops, want %d", name, count.kernels, 6+2)
		}

		// Mismatched layouts are rejected, not silently misapplied.
		other, _ := trace.NewJob([]*trace.Worker{{Rank: 0, World: 1}})
		if plan.Fill(trace.NewAnnotations(other)) {
			t.Fatalf("%s: plan.Fill accepted an overlay of a different job", name)
		}
	}
}

func TestEstimatePlanHonorsCancellation(t *testing.T) {
	cluster := hardware.DGXV100(1)
	s, err := TrainSuite(nil, cluster)
	if err != nil {
		t.Fatal(err)
	}
	job, comms, sizes := planFixtureJob(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BuildEstimatePlan(ctx, job, comms, sizes); err != context.Canceled {
		t.Fatalf("BuildEstimatePlan(cancelled) = %v, want context.Canceled", err)
	}
}

func TestKernelFeaturesPropertyStable(t *testing.T) {
	// Randomized shapes: the append path and the allocating path agree
	// for arbitrary dims/work volumes and dtypes.
	dtypes := []string{"fp32", "fp16", "bf16", "fp8", "int8"}
	if err := quick.Check(func(seed uint64, nd uint8, flops, bytes int64) bool {
		rng := prand.New(seed)
		dims := make([]int, int(nd%12))
		for i := range dims {
			dims[i] = rng.Intn(1 << 16)
		}
		op := trace.OpOf(trace.KindKernel, &trace.Shape{
			Name: "p",
			Dims: dims, FLOPs: flops & (1<<40 - 1), Bytes: bytes & (1<<40 - 1),
			DType: dtypes[rng.Intn(len(dtypes))],
		})
		var buf [featureLen]float64
		return reflect.DeepEqual(KernelFeatures(&op), AppendKernelFeatures(buf[:0], &op))
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// countingTimer counts the device ops the timer behind it prices.
type countingTimer struct {
	trace.Timer
	kernels int
}

func (c *countingTimer) EstimateKernel(op *trace.Op) time.Duration {
	c.kernels++
	return c.Timer.EstimateKernel(op)
}
