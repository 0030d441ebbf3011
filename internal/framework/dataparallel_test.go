package framework

import (
	"strings"
	"testing"

	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
)

func runDP(t *testing.T, cfg DataParallelConfig) *trace.Worker {
	t.Helper()
	w, err := NewDataParallel(cfg)
	if err != nil {
		t.Fatalf("NewDataParallel: %v", err)
	}
	em := emulator.New(emulator.Config{
		Rank: 0, World: w.World(), GPU: hardware.A40(), Host: hardware.EpycHost(),
	})
	if err := w.Run(0, em); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return em.Trace()
}

func tinyCNN() *models.CNN {
	c := models.CNN{
		Name:  "tinycnn",
		Input: 64,
		Stem:  models.ConvStage{In: 3, Out: 16, Kernel: 3, Stride: 2, Repeat: 1},
		Stages: []models.ConvStage{
			{In: 16, Out: 32, Kernel: 3, Stride: 2, Repeat: 2},
			{In: 32, Out: 64, Kernel: 3, Stride: 2, Repeat: 2, Bottleneck: true},
		},
		Classes: 10,
	}
	return &c
}

func tinyTransformer() *models.Transformer {
	m := models.Transformer{Name: "tinyT", Layers: 2, Hidden: 256, Heads: 4, FFN: 1024, Seq: 128, Vocab: 1600}
	return &m
}

func TestValidationRequiresExactlyOneModel(t *testing.T) {
	if _, err := NewDataParallel(DataParallelConfig{NGPUs: 1, GlobalBatch: 4}); err == nil {
		t.Fatal("no model accepted")
	}
	if _, err := NewDataParallel(DataParallelConfig{
		Transformer: tinyTransformer(), CNN: tinyCNN(), NGPUs: 1, GlobalBatch: 4,
	}); err == nil {
		t.Fatal("two models accepted")
	}
}

// TestDataParallelValidation pins that bad values are rejected at
// construction, not divided by or emulated.
func TestDataParallelValidation(t *testing.T) {
	base := DataParallelConfig{CNN: tinyCNN(), NGPUs: 2, GlobalBatch: 8}
	if _, err := NewDataParallel(base); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*DataParallelConfig)
		substr string
	}{
		{"ngpus*gradaccum wraps", func(c *DataParallelConfig) { c.NGPUs, c.GradAccum = 1<<32, 1<<32 }, "divisible"},
		{"negative grad accum", func(c *DataParallelConfig) { c.NGPUs, c.GlobalBatch, c.GradAccum = 1, 4, -2 }, "gradaccum"},
		{"zero global batch", func(c *DataParallelConfig) { c.GlobalBatch = 0 }, "global batch"},
		{"negative global batch", func(c *DataParallelConfig) { c.GlobalBatch = -8 }, "global batch"},
		{"negative iterations", func(c *DataParallelConfig) { c.Iterations = -1 }, "iterations"},
		{"unknown strategy", func(c *DataParallelConfig) { c.Strategy = DPStrategy(7) }, "strategy"},
		{"negative strategy", func(c *DataParallelConfig) { c.Strategy = -1 }, "strategy"},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		_, err := NewDataParallel(cfg)
		if err == nil {
			t.Errorf("%s: %+v accepted", c.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: err %q missing %q", c.name, err, c.substr)
		}
	}
}

func TestDDPAllReducesOncePerBucket(t *testing.T) {
	tr := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 4, GlobalBatch: 16})
	st := tr.Stats()
	// stem + 2 stages + head = 4 buckets, plus the grad-norm scalar.
	if st.ByName["ncclAllReduce"] != 4+1 {
		t.Fatalf("allreduces = %d, byName %v", st.ByName["ncclAllReduce"], st.ByName)
	}
	if st.ByName["ncclReduceScatter"] != 0 {
		t.Fatal("DDP must not reduce-scatter")
	}
}

func TestZeRO3GathersParamsEachPass(t *testing.T) {
	tr := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 4, GlobalBatch: 16, Strategy: ZeRO3})
	st := tr.Stats()
	// Forward + backward gather per parametered block (4 blocks).
	if st.ByName["ncclAllGather"] < 8 {
		t.Fatalf("zero3 allgathers = %d, want >= 8 (%v)", st.ByName["ncclAllGather"], st.ByName)
	}
	if st.ByName["ncclReduceScatter"] < 4 {
		t.Fatalf("zero3 reduce-scatters = %d", st.ByName["ncclReduceScatter"])
	}
}

func TestActOffloadEmitsTransfers(t *testing.T) {
	plain := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 2, GlobalBatch: 8}).Stats()
	off := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 2, GlobalBatch: 8, ActOffload: true}).Stats()
	if off.ByName["MemcpyDtoH"] <= plain.ByName["MemcpyDtoH"] {
		t.Fatalf("offload DtoH = %d vs plain %d", off.ByName["MemcpyDtoH"], plain.ByName["MemcpyDtoH"])
	}
	if off.ByName["MemcpyHtoD"] <= plain.ByName["MemcpyHtoD"] {
		t.Fatalf("offload HtoD = %d vs plain %d", off.ByName["MemcpyHtoD"], plain.ByName["MemcpyHtoD"])
	}
}

func TestCompileFusesPointwiseIntoTriton(t *testing.T) {
	plain := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 1, GlobalBatch: 8}).Stats()
	comp := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 1, GlobalBatch: 8, Compile: true}).Stats()
	if comp.ByName["triton"] == 0 {
		t.Fatal("compile produced no triton kernels")
	}
	if plain.ByName["triton"] != 0 {
		t.Fatal("eager mode produced triton kernels")
	}
	if comp.ByName["batchnorm_fwd"] != 0 {
		t.Fatal("compile left unfused batchnorm")
	}
	if comp.ByName["cublasLtMatmul"] == 0 || plain.ByName["cublasLtMatmul"] != 0 {
		t.Fatalf("dense lowering: compile %d, eager %d",
			comp.ByName["cublasLtMatmul"], plain.ByName["cublasLtMatmul"])
	}
	if comp.Kernels >= plain.Kernels {
		t.Fatalf("fusion should reduce kernel count: %d vs %d", comp.Kernels, plain.Kernels)
	}
}

func TestShardingReducesPersistentMemory(t *testing.T) {
	peak := func(s DPStrategy) int64 {
		return runDP(t, DataParallelConfig{
			Transformer: tinyTransformer(), NGPUs: 4, GlobalBatch: 8, Strategy: s,
		}).PeakBytes
	}
	ddp := peak(DDP)
	z1 := peak(ZeRO1)
	z3 := peak(ZeRO3)
	if !(z1 < ddp) {
		t.Fatalf("zero1 peak %d !< ddp %d", z1, ddp)
	}
	if !(z3 < z1) {
		t.Fatalf("zero3 peak %d !< zero1 %d", z3, z1)
	}
}

func TestTransformerDPEmitsMegatronKernels(t *testing.T) {
	st := runDP(t, DataParallelConfig{Transformer: tinyTransformer(), NGPUs: 1, GlobalBatch: 4}).Stats()
	for _, name := range []string{"cublasGemmEx", "cuApplyLayerNorm", "masked_softmax_warp_forward", "indexSelectLargeIndex", "multi_tensor_apply_kernel"} {
		if st.ByName[name] == 0 {
			t.Errorf("missing kernel %s", name)
		}
	}
}

func TestGradAccumMultipliesWork(t *testing.T) {
	one := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 1, GlobalBatch: 8, GradAccum: 1}).Stats()
	four := runDP(t, DataParallelConfig{CNN: tinyCNN(), NGPUs: 1, GlobalBatch: 8, GradAccum: 4}).Stats()
	if four.Kernels < 3*one.Kernels {
		t.Fatalf("grad accum kernels %d vs %d", four.Kernels, one.Kernels)
	}
}
