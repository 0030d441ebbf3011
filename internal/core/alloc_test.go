package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"maya/internal/emulator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/sim"
	"maya/internal/trace"
	"maya/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// budgetRecipe is one recipe of the benchmark's predict-cold workload.
type budgetRecipe struct {
	name    string
	cluster hardware.Cluster
	w       workload.Workload
}

// budgetRecipes are one recipe per predict-cold cluster.
func budgetRecipes(t *testing.T) []budgetRecipe {
	t.Helper()
	cnn := models.ResNet152()
	vision, err := framework.NewDataParallel(framework.DataParallelConfig{
		CNN: &cnn, NGPUs: 8, GlobalBatch: 256, Strategy: framework.DDP, DType: "fp16",
	})
	if err != nil {
		t.Fatal(err)
	}
	return []budgetRecipe{
		{"gpt3-2.7b@8xV100 tp2 pp2", hardware.DGXV100(1), megatron(t, framework.MegatronConfig{
			Model: models.GPT3_2_7B(), NGPUs: 8, GlobalBatch: 64, TP: 2, PP: 2, MicroBatches: 8, ActRecompute: true,
		})},
		{"gpt3-18.4b@64xH100 tp8 pp4", hardware.DGXH100(8), megatron(t, framework.MegatronConfig{
			Model: models.GPT3_18_4B(), NGPUs: 64, GlobalBatch: 128, TP: 8, PP: 4, MicroBatches: 16, ActRecompute: true,
		})},
		{"resnet152@8xA40 ddp", hardware.A40Node(), vision},
	}
}

// retainedBytes is what a capture's job keeps of the emulation: the
// sealed op arrays, the slabs their Coll live in, and each interned
// shape once, with its dims (Extra maps are not counted).
func retainedBytes(c *Capture) uint64 {
	var n uintptr
	shapes := map[*trace.Shape]bool{}
	for _, w := range c.Job.Workers {
		n += uintptr(len(w.Ops)) * unsafe.Sizeof(trace.Op{})
		for i := range w.Ops {
			if s := w.Ops[i].Shape; s != nil && !shapes[s] {
				shapes[s] = true
				n += unsafe.Sizeof(trace.Shape{}) + uintptr(len(s.Dims))*unsafe.Sizeof(int(0))
			}
			if w.Ops[i].Coll != nil {
				n += unsafe.Sizeof(trace.Collective{})
			}
		}
	}
	if c.index != nil {
		n += uintptr(c.index.Bytes())
	}
	return uint64(n)
}

// maxReplayObjects bounds the objects a warm replay allocates: the
// reports and their per-worker slices, nothing per op.
const maxReplayObjects = 64

// TestAllocBudgetIndex bounds what compiling a capture's job for the
// engine allocates per op on the benchmark's three recipes — beside
// the ~100 B/op a capture retains — and pins that a warm replay on
// held scratch allocates a fixed number of objects however long the
// trace: the index and the plan are read in place. Replays that
// alternate between two captures on one scratch allocate a fixed
// number of bytes however long the traces: the engine's queue and
// interval buffers, sized by the index, are kept across runs, where
// per-stream queues recycled onto other streams regrew every run.
func TestAllocBudgetIndex(t *testing.T) {
	ctx := context.Background()
	type held struct {
		p   *Pipeline
		c   *Capture
		ops int
	}
	var alternate []held
	for _, r := range budgetRecipes(t) {
		p := oraclePipeline(r.cluster, Options{SelectiveLaunch: true})
		c, err := p.Capture(ctx, r.w)
		if err != nil || c.OOM {
			t.Fatalf("%s: Capture: %v (oom %t)", r.name, err, c != nil && c.OOM)
		}
		ops := 0
		for _, w := range c.Job.Workers {
			ops += len(w.Ops)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := sim.Compile(c.Job, nil)
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)

		scratch := NewSimScratch()
		replay := func() {
			if _, err := p.SimulateScratch(ctx, c, 0, hardware.BF16, scratch, 0); err != nil {
				t.Fatal(err)
			}
		}
		replay() // builds the plan and the capture's index
		objects := testing.AllocsPerRun(3, replay)
		t.Logf("%s: %d ops, %d workers; compiling allocates %.2f B/op, the index retains %.2f B/op (the capture %.0f); a warm replay allocates %.0f objects",
			r.name, ops, len(c.Job.Workers), perOp, float64(x.Bytes())/float64(ops), float64(retainedBytes(c))/float64(ops), objects)
		if perOp > 6 {
			t.Errorf("%s: compiling the index allocates %.2f B/op, want at most 6", r.name, perOp)
		}
		if objects > maxReplayObjects {
			t.Errorf("%s: a warm replay allocates %.0f objects, want at most %d", r.name, objects, maxReplayObjects)
		}
		if len(alternate) < 2 { // gpt3-2.7b and gpt3-18.4b
			alternate = append(alternate, held{p, c, ops})
		}
	}

	scratch := NewSimScratch()
	cycle := func() {
		for _, h := range alternate {
			if _, err := h.p.SimulateScratch(ctx, h.c, 0, hardware.BF16, scratch, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // sizes the scratch for both
	const cycles = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	t.Logf("alternating %d- and %d-op captures on one scratch allocates %.0f B a cycle (%.2f B per replayed op)",
		alternate[0].ops, alternate[1].ops, perCycle, perCycle/float64(alternate[0].ops+alternate[1].ops))
	if perCycle > maxAlternateBytes {
		t.Errorf("alternating two captures on one scratch allocates %.0f B a cycle, want at most %d", perCycle, maxAlternateBytes)
	}
}

// maxAlternateBytes bounds what one cycle of warm replays of two
// captures on one scratch allocates: two reports, nothing per op.
const maxAlternateBytes = 16 << 10

// captureAllocs returns the bytes one Capture allocates and the bytes
// its job retains.
func captureAllocs(t *testing.T, p *Pipeline, w workload.Workload) (allocated, retained uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := p.Capture(context.Background(), w)
	runtime.ReadMemStats(&after)
	if err != nil || c.OOM {
		t.Fatalf("Capture: %v (oom %t)", err, c != nil && c.OOM)
	}
	return after.TotalAlloc - before.TotalAlloc, retainedBytes(c)
}

// TestAllocBudgetCapture bounds what the front half of a cold
// prediction allocates against what it keeps. With the recording
// scratch warm, a capture allocates its sealed traces once plus the
// workload's own descriptors (the emulator that grew every trace from
// nil was above 5x on every capture). With the pool empty each
// emulation goroutine also grows a scratch by doubling, which
// allocates under 4x the rank that grew it (under 2x its final
// capacity, itself under 2x the rank): 5.5x bounds the worst case of
// every rank starting cold. Allocation counts do not depend on
// timing, so the bounds are tight.
func TestAllocBudgetCapture(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random: no pool stays warm")
	}
	// No collection between the captures of a pair: a collection ages
	// the pool, and the warm bound is about a warm pool. One processor,
	// because sync.Pool parks a Put in a per-P slot other Ps cannot
	// take from: on several, whether the second capture finds the
	// first's scratch is up to the scheduler.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, r := range budgetRecipes(t) {
		p := oraclePipeline(r.cluster, Options{SelectiveLaunch: true})
		// Two collections empty a sync.Pool (primary, then victim).
		runtime.GC()
		runtime.GC()
		coldBytes, retained := captureAllocs(t, p, r.w)
		warmBytes, _ := captureAllocs(t, p, r.w)
		cold, warm := float64(coldBytes)/float64(retained), float64(warmBytes)/float64(retained)
		t.Logf("%s: retains %.2f MB; allocates %.2fx cold, %.2fx warm", r.name, float64(retained)/1e6, cold, warm)
		if warm > 2 {
			t.Errorf("%s: warm capture allocates %.2fx the %d B it retains, want at most 2x", r.name, warm, retained)
		}
		if cold > 5.5 {
			t.Errorf("%s: cold-pool capture allocates %.2fx the %d B it retains, want at most 5.5x", r.name, cold, retained)
		}
	}
}

// TestAllocBudgetEmulateRank pins the objects one emulated rank
// allocates on BenchmarkEmulateMegatronRank's fixture. Recording
// Dims and Collective into slabs took it from 8282 to about 3950;
// launching every kernel's Dims from the rank shell's one array took
// it from 2509 to 128, so the dims literals of the emitters stay on
// their stacks. What remains is the rank's setup (handles, streams,
// communicators, the shape table) and the sealed trace.
func TestAllocBudgetEmulateRank(t *testing.T) {
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_2_7B(), NGPUs: 8, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 4, ActRecompute: true,
	})
	cluster := hardware.DGXV100(1)
	allocs := testing.AllocsPerRun(5, func() {
		em := emulator.New(emulator.Config{Rank: 0, World: 8, GPU: cluster.Node.GPU, Host: cluster.Host})
		if err := m.Run(0, em); err != nil {
			t.Fatal(err)
		}
		em.Trace()
	})
	const bound = 256
	t.Logf("%.0f allocs per emulated rank (8282 before the recording scratch, 2509 before the shell's dims array)", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocs per emulated rank, want at most %d", allocs, bound)
	}
}
