package experiments

// fig17: per-worker stall attribution over a pipeline-parallel sweep.
// Not a figure of the source paper — it exercises the simulator's
// Breakdown observer the way detailed GPU simulators use per-event
// timelines. At fixed parallelism the pipeline fill/drain cost
// scales as (pp-1)/m, and in a trace-replay world it surfaces as
// collective straggler wait: a stage parked at a P2P recv while the
// activation is still being produced upstream. Growing the
// microbatch count must shrink that share — which the attribution
// shows directly, without eyeballing a timeline.

import (
	"context"
	"fmt"
	"time"

	"maya"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func init() {
	register("fig17", fig17)
}

func fig17(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Where workers wait: stall attribution vs microbatch count (GPT-3 1.3B, tp2/pp2)",
		Header: []string{"microbatches", "iter time", "bubble", "coll-wait", "event-wait", "host-bound", "busy"},
	}
	pred, err := e.predictor(hardware.DGXV100(1), estimator.ProfileLLM, false)
	if err != nil {
		return nil, err
	}
	micros := []int{2, 4, 8}
	if e.Scale == Quick {
		micros = []int{2, 8}
	}
	for _, mb := range micros {
		w, err := framework.NewMegatron(framework.MegatronConfig{
			Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16,
			TP: 2, PP: 2, MicroBatches: mb,
		})
		if err != nil {
			return nil, err
		}
		rep, err := pred.Predict(ctx, w, maya.WithStallBreakdown())
		if err != nil {
			return nil, err
		}
		if rep.OOM {
			return nil, fmt.Errorf("fig17 mb=%d: unexpected OOM", mb)
		}
		if rep.Stalls == nil {
			return nil, fmt.Errorf("fig17 mb=%d: breakdown missing from report", mb)
		}
		// Shares of total worker-time: idle categories plus busy sum
		// to 1 across the fleet.
		tot := rep.Stalls.Total()
		span := tot.Span()
		if span == 0 {
			return nil, fmt.Errorf("fig17 mb=%d: zero span", mb)
		}
		frac := func(d time.Duration) string { return pct(d.Seconds() / span.Seconds()) }
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mb), rep.IterTime.Round(time.Microsecond).String(),
			frac(tot.Bubble), frac(tot.CollectiveWait), frac(tot.EventWait),
			frac(tot.HostBound), frac(tot.Busy),
		})
		t.claim(fmt.Sprintf("coll_wait/%d", mb), tot.CollectiveWait.Seconds()/span.Seconds())
	}
	t.Notes = append(t.Notes,
		"expectation: the pipeline bubble surfaces as collective (P2P) straggler wait and falls as microbatches grow ((pp-1)/m fill/drain cost)")
	return t, nil
}
