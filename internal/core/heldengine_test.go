package core

import (
	"context"
	"testing"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/sim"
)

// TestHeldEngineMatchesSimulate asserts the worker-affine path (one
// engine a search worker holds across trials) produces the exact
// report a pooled engine does, across repeated reuse of one engine.
func TestHeldEngineMatchesSimulate(t *testing.T) {
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	engine := sim.NewEngine()

	configs := []framework.MegatronConfig{
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 4, PP: 2, MicroBatches: 4},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 1, PP: 4, MicroBatches: 4},
	}
	for _, cfg := range configs {
		c, err := p.Capture(context.Background(), megatron(t, cfg))
		if err != nil {
			t.Fatalf("Capture(%+v): %v", cfg, err)
		}
		flops := cfg.Model.TrainFLOPsPerIter(cfg.GlobalBatch)
		pooled, err := p.Simulate(context.Background(), c, flops, hardware.BF16)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		affine, err := p.simulate(context.Background(), c, flops, hardware.BF16, engine, 0)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if affine.IterTime != pooled.IterTime || affine.CommTime != pooled.CommTime ||
			affine.ExposedComm != pooled.ExposedComm || affine.MFU != pooled.MFU ||
			affine.PeakMemBytes != pooled.PeakMemBytes || affine.Truncated {
			t.Fatalf("held engine diverged for %+v:\npooled %+v\naffine %+v", cfg, pooled, affine)
		}
	}
}

// TestSimulateLimitTruncates asserts the limit threads through to
// the simulator and surfaces as Report.Truncated, and that a limit
// beyond the iteration time changes nothing.
func TestSimulateLimitTruncates(t *testing.T) {
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	cfg := framework.MegatronConfig{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}
	c, err := p.Capture(context.Background(), megatron(t, cfg))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	full, err := p.Simulate(context.Background(), c, 0, hardware.BF16)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	engine := sim.NewEngine()

	cut, err := p.simulate(context.Background(), c, 0, hardware.BF16, engine, full.IterTime/4)
	if err != nil {
		t.Fatalf("simulate(limit): %v", err)
	}
	if !cut.Truncated {
		t.Fatalf("limit %v below iter time %v did not truncate", full.IterTime/4, full.IterTime)
	}

	far, err := p.simulate(context.Background(), c, 0, hardware.BF16, engine, 10*time.Hour)
	if err != nil {
		t.Fatalf("simulate(far limit): %v", err)
	}
	if far.Truncated || far.IterTime != full.IterTime {
		t.Fatalf("far limit changed the run: full %+v vs %+v", full, far)
	}

	// A nil engine with a limit also works (the pooled path).
	cut2, err := p.simulate(context.Background(), c, 0, hardware.BF16, nil, full.IterTime/4)
	if err != nil {
		t.Fatalf("simulate(nil engine): %v", err)
	}
	if !cut2.Truncated || cut2.IterTime != cut.IterTime {
		t.Fatalf("nil-engine truncation diverged: %+v vs %+v", cut, cut2)
	}
}
