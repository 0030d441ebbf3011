package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"maya/internal/faults"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/sim"
)

func TestFaultPlanThroughPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{NoDedup: true})
	cfg := framework.MegatronConfig{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}
	c, err := p.Capture(ctx, megatron(t, cfg))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	base, err := p.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatalf("baseline Simulate: %v", err)
	}
	if base.Recovery != nil {
		t.Fatal("baseline report has Recovery without a plan")
	}

	// The trace itself holds one iteration; Iterations extends the
	// walk at the steady-state rate so the mid-run failure lands.
	plan := &faults.Plan{
		CheckpointEvery: 1,
		CheckpointCost:  base.IterTime / 10,
		Detect:          base.IterTime / 2,
		Restore:         base.IterTime / 4,
		Iterations:      8,
		Stragglers:      []faults.Straggler{{Ranks: []int{1}, Factor: 1.5}},
		Failures:        []faults.FailStop{{Rank: 3, At: 3 * base.IterTime}},
	}
	pf := &Pipeline{Cluster: p.Cluster, Suite: p.Suite, Opts: Options{NoDedup: true, Faults: plan}}
	rep, err := pf.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatalf("fault Simulate: %v", err)
	}
	rec := rep.Recovery
	if rec == nil {
		t.Fatal("fault run returned no Recovery")
	}
	if len(rec.Failures) != 1 || rec.Failures[0].Rank != 3 {
		t.Fatalf("failures = %+v, want one for rank 3", rec.Failures)
	}
	if rec.Goodput <= 0 || rec.Goodput >= 1 {
		t.Fatalf("goodput = %v, want in (0, 1)", rec.Goodput)
	}
	if rec.PerturbedTime <= rec.CleanTime {
		t.Fatalf("perturbed %v not above clean %v despite straggler", rec.PerturbedTime, rec.CleanTime)
	}
	if rec.TotalTime <= rec.PerturbedTime {
		t.Fatalf("total %v not above perturbed %v despite failure", rec.TotalTime, rec.PerturbedTime)
	}

	// Bit-identical across reruns and across a pooled and a held
	// engine.
	again, err := pf.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(again.Recovery, rec) {
		t.Fatalf("rerun recovery diverged:\n got %+v\nwant %+v", again.Recovery, rec)
	}
	held, err := pf.simulate(ctx, c, 0, hardware.BF16, sim.NewEngine(), 0)
	if err != nil {
		t.Fatalf("held-engine run: %v", err)
	}
	if !reflect.DeepEqual(held.Recovery, rec) {
		t.Fatalf("held-engine recovery diverged:\n got %+v\nwant %+v", held.Recovery, rec)
	}

	// The recovery block must survive the JSON contract round trip.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back.Recovery, rec) {
		t.Fatalf("JSON round trip diverged:\n got %+v\nwant %+v", back.Recovery, rec)
	}

	// A truncated run skips the walk: no Recovery on a lower bound.
	trunc, err := pf.simulate(ctx, c, 0, hardware.BF16, nil, time.Microsecond)
	if err != nil {
		t.Fatalf("truncated run: %v", err)
	}
	if !trunc.Truncated || trunc.Recovery != nil {
		t.Fatalf("truncated run: truncated=%v recovery=%v, want true/nil", trunc.Truncated, trunc.Recovery)
	}
}

func TestFaultPlanRejectsDedupedCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	// tp2 x pp2 x dp2: duplicate ranks collapse under dedup.
	cfg := framework.MegatronConfig{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2}
	c, err := p.Capture(ctx, megatron(t, cfg))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if c.UniqueWorkers >= c.TotalWorkers {
		t.Fatalf("fixture did not dedup (%d of %d unique)", c.UniqueWorkers, c.TotalWorkers)
	}
	pf := &Pipeline{Cluster: p.Cluster, Suite: p.Suite, Opts: Options{Faults: &faults.Plan{Detect: time.Second}}}
	if _, err := pf.Simulate(ctx, c, 0, hardware.BF16); err == nil {
		t.Fatal("fault plan accepted a deduplicated capture")
	}
}
