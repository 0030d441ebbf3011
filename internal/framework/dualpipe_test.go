package framework

import (
	"context"
	"testing"

	"maya/internal/collator"
	"maya/internal/trace"
)

func TestDualPipeScheduleStructure(t *testing.T) {
	const pp, m = 4, 8
	sched := dualPipeSchedule(pp, m)
	d := 2 * pp
	seen := make(map[Action]bool)
	for p, actions := range sched {
		for _, a := range actions {
			owner := a.VStage
			if owner >= pp {
				owner = 2*pp - 1 - a.VStage
			}
			if owner != p {
				t.Fatalf("rank %d runs vstage %d (owner %d)", p, a.VStage, owner)
			}
			if seen[a] {
				t.Fatalf("duplicate %v", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != 2*d*m {
		t.Fatalf("actions = %d, want %d", len(seen), 2*d*m)
	}
	// Rank 0 hosts both the first and last virtual stage — DualPipe's
	// defining property.
	hasFirst, hasLast := false, false
	for _, a := range sched[0] {
		if a.VStage == 0 {
			hasFirst = true
		}
		if a.VStage == d-1 {
			hasLast = true
		}
	}
	if !hasFirst || !hasLast {
		t.Fatal("rank 0 must own both pipeline ends under DualPipe")
	}
}

func TestDualPipeValidation(t *testing.T) {
	base := MegatronConfig{Model: smallModel(), NGPUs: 4, GlobalBatch: 16, TP: 1, PP: 2, MicroBatches: 4, DualPipe: true}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid DualPipe config rejected: %v", err)
	}
	noPP := base
	noPP.PP, noPP.TP = 1, 2
	if noPP.Validate() == nil {
		t.Fatal("DualPipe without PP accepted")
	}
	both := base
	both.VirtualStages = 2
	if both.Validate() == nil {
		t.Fatal("DualPipe + interleaving accepted")
	}
}

func TestDualPipeWorkloadRunsAndCollates(t *testing.T) {
	m, err := NewMegatron(MegatronConfig{
		Model: smallModel(), NGPUs: 2, GlobalBatch: 8, TP: 1, PP: 2, MicroBatches: 4, DualPipe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*trace.Worker
	for r := 0; r < 2; r++ {
		workers = append(workers, emulate(t, m, r))
	}
	if _, err := collator.Collate(context.Background(), workers, collator.Options{Validate: true}); err != nil {
		t.Fatalf("collation failed: %v", err)
	}
	// Rank 0 carries embedding AND head kernels (both pipeline ends).
	st := workers[0].Stats()
	if st.ByName["indexSelectLargeIndex"] == 0 {
		t.Error("rank 0 missing embedding kernels")
	}
	if st.ByName["nll_loss_forward_reduce_cuda_kernel_2d"] == 0 {
		t.Error("rank 0 missing loss kernels")
	}
}

func TestDualPipeBubbleCompetitiveWithInterleaving(t *testing.T) {
	// At equal chunk counts (2*pp virtual stages) the folded DualPipe
	// assignment must schedule as efficiently as standard
	// interleaving. (Full DualPipe also injects microbatches from
	// both pipeline ends, a further gain this unidirectional variant
	// does not model; what Maya demonstrates is that a *new schedule*
	// needs no modeling changes at all.)
	inter := replayMakespan(loopedSchedule(4, 2, 8), 4, 2, 8)
	dual := replayMakespan(dualPipeSchedule(4, 8), 4, 2, 8)
	if dual > inter+inter/10 {
		t.Fatalf("DualPipe makespan %d much worse than interleaved %d", dual, inter)
	}
}
