package framework

import (
	"errors"
	"strings"
	"testing"

	"maya/internal/collator"
	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
	"maya/internal/workload"
)

func smallModel() models.Transformer {
	return models.Transformer{
		Name: "tiny", Layers: 4, Hidden: 512, Heads: 8, FFN: 2048, Seq: 256, Vocab: 3200,
	}
}

func emulate(t *testing.T, m *Megatron, rank int) *trace.Worker {
	t.Helper()
	em := emulator.New(emulator.Config{
		Rank: rank, World: m.World(), GPU: hardware.H100(), Host: hardware.EpycHost(),
	})
	if err := m.Run(rank, em); err != nil {
		t.Fatalf("Run(rank %d): %v", rank, err)
	}
	return em.Trace()
}

func TestValidation(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*MegatronConfig)
		substr string
	}{
		{"indivisible world", func(c *MegatronConfig) { c.TP = 3 }, "divisible"},
		{"heads vs tp", func(c *MegatronConfig) { c.TP = 8; c.PP = 1 }, ""},
		{"layers vs pp*v", func(c *MegatronConfig) { c.PP = 8; c.TP = 1 }, "layers"},
		{"virtual without pp", func(c *MegatronConfig) { c.PP = 1; c.TP = 1; c.VirtualStages = 2 }, "PP>1"},
		{"seqpar without tp", func(c *MegatronConfig) { c.TP = 1; c.SeqParallel = true }, "TP>1"},
		{"batch divisibility", func(c *MegatronConfig) { c.GlobalBatch = 10 }, "batch"},
		{"zero global batch", func(c *MegatronConfig) { c.GlobalBatch = 0 }, "global batch"},
		{"negative global batch", func(c *MegatronConfig) { c.GlobalBatch = -16 }, "global batch"},
		{"negative iterations", func(c *MegatronConfig) { c.Iterations = -1 }, "iterations"},
		{"fp8 dtype", func(c *MegatronConfig) { c.DType = "fp8" }, "dtype"},
		{"misspelt dtype", func(c *MegatronConfig) { c.DType = "bf61" }, "dtype"},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			// Some mutations may legitimately validate (heads vs tp:
			// 8 heads / 8 tp is fine); only fail when a substring was
			// demanded.
			if c.substr != "" {
				t.Errorf("%s: expected error", c.name)
			}
			continue
		}
		if c.substr != "" && !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: err %q missing %q", c.name, err, c.substr)
		}
	}
}

// TestValidationOverflowingProducts pins that hostile degrees are
// rejected, not divided by: each product of the first three cases
// wraps int to zero.
func TestValidationOverflowingProducts(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}
	cases := map[string]func(*MegatronConfig){
		"tp*pp":           func(c *MegatronConfig) { c.TP, c.PP = 1<<32, 1<<32 },
		"pp*v":            func(c *MegatronConfig) { c.PP, c.VirtualStages = 4, 1<<62 },
		"dp*microbatches": func(c *MegatronConfig) { c.PP, c.GlobalBatch, c.MicroBatches = 1, 1<<62, 1<<62 },
		"negative v":      func(c *MegatronConfig) { c.VirtualStages = -1 },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, cfg)
		}
	}
}

// TestHugeBatchRejected pins that a recipe whose global batch would
// overflow the sizes a rank emits is rejected at construction, naming
// the batch, and that rank 0 of the largest accepted batch ends in
// success or out of memory, never in an invalid size.
func TestHugeBatchRejected(t *testing.T) {
	cases := []struct {
		name  string
		build func(batch int) (workload.Workload, error)
	}{
		{"megatron", func(batch int) (workload.Workload, error) {
			return NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 1, GlobalBatch: batch, TP: 1, PP: 1, MicroBatches: 1})
		}},
		{"ddp/tinycnn", func(batch int) (workload.Workload, error) {
			return NewDataParallel(DataParallelConfig{CNN: tinyCNN(), NGPUs: 1, GlobalBatch: batch})
		}},
		{"ddp/tinyT", func(batch int) (workload.Workload, error) {
			return NewDataParallel(DataParallelConfig{Transformer: tinyTransformer(), NGPUs: 1, GlobalBatch: batch})
		}},
	}
	for _, c := range cases {
		for _, batch := range []int{1<<53 + 1, 1 << 53, maxGlobalBatch + 1} {
			if _, err := c.build(batch); err == nil || !strings.Contains(err.Error(), "global batch") {
				t.Errorf("%s: global batch %d: err = %v, want a global batch error", c.name, batch, err)
			}
		}
		w, err := c.build(maxGlobalBatch)
		if err != nil {
			t.Fatalf("%s: global batch %d rejected: %v", c.name, maxGlobalBatch, err)
		}
		em := emulator.New(emulator.Config{World: w.World(), GPU: hardware.H100(), Host: hardware.EpycHost()})
		if err := w.Run(0, em); err != nil && !errors.Is(err, cuda.ErrOutOfMemory) {
			t.Errorf("%s: global batch %d: rank 0: %v", c.name, maxGlobalBatch, err)
		}
	}
}

func TestRankLayoutAndGroups(t *testing.T) {
	cfg := MegatronConfig{Model: smallModel(), NGPUs: 16, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}.withDefaults()
	// rank = pp*(tp*dp) + dp*tp + tp; dp = 4.
	co := cfg.coords(11) // 11 = 1*8 + 1*2 + 1
	if co.tp != 1 || co.dp != 1 || co.pp != 1 {
		t.Fatalf("coords(11) = %+v", co)
	}
	if cfg.rankOf(co) != 11 {
		t.Fatalf("rankOf(coords(11)) = %d", cfg.rankOf(co))
	}
	tpg := cfg.tpGroup(co)
	if len(tpg) != 2 || tpg[0] != 10 || tpg[1] != 11 {
		t.Fatalf("tp group = %v", tpg)
	}
	dpg := cfg.dpGroup(co)
	if len(dpg) != 4 || dpg[0] != 9 || dpg[1] != 11 || dpg[2] != 13 || dpg[3] != 15 {
		t.Fatalf("dp group = %v", dpg)
	}
	ppg := cfg.ppGroup(co)
	if len(ppg) != 2 || ppg[0] != 3 || ppg[1] != 11 {
		t.Fatalf("pp group = %v", ppg)
	}
}

func TestUniqueRanksOnePerStage(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 16, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	u := m.UniqueRanks()
	if len(u) != 4 {
		t.Fatalf("unique ranks = %v", u)
	}
	for i, r := range u {
		if m.cfg.coords(r).pp != i || m.cfg.coords(r).tp != 0 || m.cfg.coords(r).dp != 0 {
			t.Fatalf("unique rank %d = %d (coords %+v)", i, r, m.cfg.coords(r))
		}
	}
}

func TestCommGroupsMatchTraceMembership(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*trace.Worker
	for r := 0; r < 8; r++ {
		workers = append(workers, emulate(t, m, r))
	}
	comms, sizes, err := collator.CommMembership(workers)
	if err != nil {
		t.Fatal(err)
	}
	declared := m.CommGroups()
	if len(declared) == 0 {
		t.Fatal("no declared groups")
	}
	for id, want := range declared {
		got, ok := comms[id]
		if !ok {
			t.Fatalf("declared comm %#x missing from traces", id)
		}
		if len(got) != len(want) {
			t.Fatalf("comm %#x: traced %v vs declared %v", id, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("comm %#x: traced %v vs declared %v", id, got, want)
			}
		}
		if sizes[id] != len(want) {
			t.Fatalf("comm %#x size %d vs %d", id, sizes[id], len(want))
		}
	}
}

func TestDPAndTPPeersAreDuplicates(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*trace.Worker
	for r := 0; r < 8; r++ {
		workers = append(workers, emulate(t, m, r))
	}
	groups := collator.DuplicateGroups(workers)
	// tp2 x dp2 collapse: one representative per pipeline stage.
	if len(groups) != 2 {
		t.Fatalf("duplicate groups = %v, want one per stage", groups)
	}
}

func TestIterationMarksAndSync(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{
		Model: smallModel(), NGPUs: 2, GlobalBatch: 8, TP: 2, PP: 1, MicroBatches: 2, Iterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := emulate(t, m, 0)
	iters, setups := 0, 0
	for _, op := range tr.Ops {
		if op.Kind == trace.KindMark {
			switch op.Name {
			case trace.MarkIterEnd:
				iters++
			case trace.MarkSetupEnd:
				setups++
			}
		}
	}
	if iters != 3 || setups != 1 {
		t.Fatalf("marks: %d iter_end, %d setup_end", iters, setups)
	}
}

func TestSeqParallelChangesCollectivePattern(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 2, GlobalBatch: 8, TP: 2, PP: 1, MicroBatches: 1}
	countOps := func(cfg MegatronConfig) map[string]int {
		m, err := NewMegatron(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return emulate(t, m, 0).Stats().ByName
	}
	plain := countOps(base)
	sp := base
	sp.SeqParallel = true
	sharded := countOps(sp)
	if plain["ncclReduceScatter"] != 0 {
		t.Fatalf("plain TP should all-reduce, got %d reduce-scatters", plain["ncclReduceScatter"])
	}
	if sharded["ncclReduceScatter"] == 0 || sharded["ncclAllGather"] == 0 {
		t.Fatalf("sequence parallelism should reduce-scatter + all-gather: %v", sharded)
	}
	if sharded["ncclAllReduce"] >= plain["ncclAllReduce"] {
		t.Fatalf("sequence parallelism should replace all-reduces (%d vs %d)",
			sharded["ncclAllReduce"], plain["ncclAllReduce"])
	}
}

func TestRecomputeReplaysForwardKernels(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 1, GlobalBatch: 4, TP: 1, PP: 1, MicroBatches: 1}
	kernels := func(cfg MegatronConfig) int {
		m, err := NewMegatron(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return emulate(t, m, 0).Stats().Kernels
	}
	plain := kernels(base)
	rec := base
	rec.ActRecompute = true
	recomputed := kernels(rec)
	if recomputed <= plain {
		t.Fatalf("recompute kernels %d <= plain %d", recomputed, plain)
	}
}

func TestGradAccumulationScalesKernels(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 1, GlobalBatch: 8, TP: 1, PP: 1, MicroBatches: 1}
	m1, _ := NewMegatron(base)
	k1 := emulate(t, m1, 0).Stats().Kernels
	ga := base
	ga.MicroBatches = 4
	m4, _ := NewMegatron(ga)
	k4 := emulate(t, m4, 0).Stats().Kernels
	// 4 microbatches run ~4x the per-layer kernels (optimizer once).
	if k4 < 3*k1 {
		t.Fatalf("grad accumulation kernels %d vs %d", k4, k1)
	}
}

func TestOOMPropagatesAsTraceFlag(t *testing.T) {
	gpu := hardware.H100()
	gpu.MemBytes = 1 << 28 // 256 MiB: the tiny model's weights won't fit
	m, err := NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 1, GlobalBatch: 4, TP: 1, PP: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	em := emulator.New(emulator.Config{GPU: gpu, Host: hardware.Host{}})
	err = m.Run(0, em)
	if err == nil {
		t.Fatal("expected OOM error")
	}
	if !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
	if !em.Trace().OOM {
		t.Fatal("trace not marked OOM")
	}
}

func TestTraceDeterminism(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{Model: smallModel(), NGPUs: 4, GlobalBatch: 8, TP: 2, PP: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := emulate(t, m, 1)
	b := emulate(t, m, 1)
	if groups := collator.DuplicateGroups([]*trace.Worker{a, b}); len(groups) != 1 {
		t.Fatalf("two emulations of one rank differ: groups %v", groups)
	}
}
