package models

import (
	"math"
	"testing"
)

func TestTransformerParamCounts(t *testing.T) {
	cases := []struct {
		model  Transformer
		wantB  float64
		within float64
	}{
		{GPT3_1_3B(), 1.3, 0.25},
		{GPT3_2_7B(), 2.7, 0.2},
		{GPT3_18_4B(), 18.4, 0.15},
		{GPT3_145_6B(), 145.6, 0.15},
		{Llama2_7B(), 6.7, 0.15},
	}
	for _, c := range cases {
		got := float64(c.model.Params()) / 1e9
		if math.Abs(got-c.wantB)/c.wantB > c.within {
			t.Errorf("%s params = %.2fB, want ~%.1fB", c.model.Name, got, c.wantB)
		}
	}
}

func TestTrainFLOPsScale(t *testing.T) {
	m := GPT3_2_7B()
	f1 := m.TrainFLOPsPerIter(64)
	f2 := m.TrainFLOPsPerIter(128)
	if math.Abs(f2/f1-2) > 1e-9 {
		t.Fatalf("flops not linear in batch: %v", f2/f1)
	}
	// ~6ND rule of thumb: 3 * 2 * params * tokens, within 2x for the
	// attention and head terms.
	approx := 6 * float64(m.Params()) * 64 * float64(m.Seq)
	if f1 < approx*0.8 || f1 > approx*2 {
		t.Fatalf("flops %.3g vs 6ND %.3g out of band", f1, approx)
	}
}

func TestCNNCounts(t *testing.T) {
	r := ResNet152()
	params := float64(r.Params()) / 1e6
	if params < 35 || params > 90 {
		t.Errorf("ResNet152 params = %.1fM, want ~60M", params)
	}
	f := r.TrainFLOPsPerIter(256)
	// ResNet-152 forward is ~11.5 GFLOPs/image at 224x224; train is
	// 3x that. Our staged approximation should land within 2.5x.
	want := 3.0 * 11.5e9 * 256
	if f < want/2.5 || f > want*2.5 {
		t.Errorf("ResNet152 train flops = %.3g, want ~%.3g", f, want)
	}
	if ResNet50().Params() >= r.Params() {
		t.Error("ResNet50 should be smaller than ResNet152")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gpt3-1.3b", "gpt3-2.7b", "gpt3-18.4b", "gpt3-145.6b", "llama2-7b", "bert-large", "t5-large", "vit-large"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("gpt5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestGatedMLPCountsExtraMatrix(t *testing.T) {
	plain := Transformer{Layers: 1, Hidden: 1024, Heads: 8, FFN: 4096, Seq: 128, Vocab: 1000}
	gated := plain
	gated.GatedMLP = true
	if gated.Params() <= plain.Params() {
		t.Fatal("gated MLP must add parameters")
	}
	if gated.TrainFLOPsPerIter(8) <= plain.TrainFLOPsPerIter(8) {
		t.Fatal("gated MLP must add FLOPs")
	}
}
