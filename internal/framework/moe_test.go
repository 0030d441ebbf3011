package framework

import (
	"testing"

	"maya/internal/collator"
	"maya/internal/models"
	"maya/internal/trace"
)

func moeModel() models.Transformer {
	m := smallModel()
	m.NumExperts = 8
	m.TopK = 2
	return m
}

func TestMoEEmitsExpertParallelPattern(t *testing.T) {
	cfg := MegatronConfig{Model: moeModel(), NGPUs: 4, GlobalBatch: 8, TP: 1, PP: 1, MicroBatches: 1}
	m, err := NewMegatron(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := emulate(t, m, 0).Stats()
	// Dispatch + combine per layer per pass: 4 layers x (2 fwd + 2 bwd).
	if st.ByName["ncclAllToAll"] != 16 {
		t.Fatalf("all-to-alls = %d, want 16 (%v)", st.ByName["ncclAllToAll"], st.ByName)
	}
	// Router softmax present.
	if st.ByName["softmax_warp_forward"] == 0 {
		t.Fatal("no router softmax")
	}
}

func TestMoEDenseHasNoAllToAll(t *testing.T) {
	cfg := MegatronConfig{Model: smallModel(), NGPUs: 4, GlobalBatch: 8, TP: 1, PP: 1, MicroBatches: 1}
	m, err := NewMegatron(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := emulate(t, m, 0).Stats().ByName["ncclAllToAll"]; n != 0 {
		t.Fatalf("dense model emitted %d all-to-alls", n)
	}
}

func TestMoEShardsExpertMemory(t *testing.T) {
	// 4-way expert parallelism should hold ~1/4 of the expert weights
	// per rank compared to a single-GPU run.
	peak := func(ngpus, batch int) int64 {
		cfg := MegatronConfig{Model: moeModel(), NGPUs: ngpus, GlobalBatch: batch, TP: 1, PP: 1, MicroBatches: 1}
		m, err := NewMegatron(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return emulate(t, m, 0).PeakBytes
	}
	single := peak(1, 2)
	sharded := peak(4, 8) // same per-rank batch
	if sharded >= single {
		t.Fatalf("expert parallelism did not reduce memory: %d vs %d", sharded, single)
	}
}

func TestMoEEpDegree(t *testing.T) {
	cfg := MegatronConfig{Model: moeModel(), NGPUs: 8, GlobalBatch: 16, TP: 1, PP: 1, MicroBatches: 1}.withDefaults()
	if ep := cfg.epDegree(); ep != 8 {
		t.Fatalf("ep = %d, want 8 (gcd(dp=8, experts=8))", ep)
	}
	cfg.Model.NumExperts = 6
	if ep := cfg.epDegree(); ep != 2 {
		t.Fatalf("ep = %d, want 2 (gcd(8, 6))", ep)
	}
	cfg.TP = 2 // dp = 4
	cfg.Model.NumExperts = 8
	if ep := cfg.epDegree(); ep != 4 {
		t.Fatalf("ep = %d, want 4", ep)
	}
}

func TestMoEDuplicatesPreserved(t *testing.T) {
	// Balanced routing keeps DP peers identical — dedup must still
	// collapse them (the §8 condition for emulation to stay valid).
	cfg := MegatronConfig{Model: moeModel(), NGPUs: 4, GlobalBatch: 8, TP: 1, PP: 1, MicroBatches: 1}
	m, err := NewMegatron(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := emulate(t, m, 0)
	b := emulate(t, m, 1)
	if groups := collator.DuplicateGroups([]*trace.Worker{a, b}); len(groups) != 1 {
		t.Fatalf("DP peers differ: groups %v", groups)
	}
}

func TestMoEModelAccounting(t *testing.T) {
	dense := smallModel()
	moe := moeModel()
	if moe.Params() <= dense.Params() {
		t.Fatal("experts must add parameters")
	}
	// Active FLOPs scale with top-k, not expert count.
	fd := dense.TrainFLOPsPerIter(8)
	fm := moe.TrainFLOPsPerIter(8)
	if fm <= fd {
		t.Fatal("top-2 routing should cost more FLOPs than dense (k=2 > 1 expert-equivalent)")
	}
	if fm > 4*fd {
		t.Fatalf("MoE active FLOPs %.3g implausibly large vs dense %.3g", fm, fd)
	}
}

// TestMoEWorkLaw sums the kernel FLOPs of every rank: however many
// ranks share the experts, the job does the model's work for the
// batch, up to the optimizer's replication.
func TestMoEWorkLaw(t *testing.T) {
	const batch = 16
	mdl := moeModel()
	want := mdl.TrainFLOPsPerIter(batch)
	for _, ep := range []int{1, 2, 4, 8} {
		cfg := MegatronConfig{Model: mdl, NGPUs: 2 * ep, GlobalBatch: batch, TP: 2, PP: 1, MicroBatches: 2}
		if got := cfg.withDefaults().epDegree(); got != ep {
			t.Fatalf("ep = %d, want %d", got, ep)
		}
		m, err := NewMegatron(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var flops float64
		for r := 0; r < m.World(); r++ {
			tr := emulate(t, m, r)
			for i := range tr.Ops {
				if op := &tr.Ops[i]; op.Kind == trace.KindKernel {
					flops += float64(op.Shape.FLOPs)
				}
			}
		}
		if ratio := flops / want; ratio < 1 || ratio > 1.03 {
			t.Errorf("ep %d: kernel FLOPs / model FLOPs = %.3f, want [1, 1.03]", ep, ratio)
		}
	}
}
