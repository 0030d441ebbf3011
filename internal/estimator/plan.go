package estimator

import (
	"context"
	"errors"
	"time"

	"maya/internal/trace"
)

// EstimatePlan is a capture-attached annotation plan: the resolved
// duration of every op of one immutable job against one timer (a
// learned suite or the silicon oracle), laid out row-major exactly
// like a trace.Annotations overlay. Building it pays the timer once —
// each interned trace.Shape is priced once, every collective gets one
// topology lookup — and every later annotate of
// the same (job, timer) pair is a single array copy into the pooled
// overlay: no hashing, no map probes, no forest walks. Plans are
// immutable once built and safe for concurrent Fill.
type EstimatePlan struct {
	durs []time.Duration
}

// Ops returns how many op slots the plan covers.
func (p *EstimatePlan) Ops() int { return len(p.durs) }

// BuildPlan resolves every device op of the job against the timer. It
// is annotation by construction — one trace.Annotate walk (behind a
// build-local shapeMemo) into a fresh overlay whose table the plan
// then keeps — so a Fill from the plan reproduces the walk exactly and
// cannot drift from it. Cancellation of ctx is observed between
// workers.
//
// The job must be positionally indexable (op Seq == index), the same
// invariant overlays require; plans exist to fill overlays, so a job
// an overlay cannot address has no use for one.
func BuildPlan(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int, t trace.Timer) (*EstimatePlan, error) {
	ann := trace.NewAnnotations(job)
	if ann == nil {
		return nil, errors.New("estimator: job is not positionally indexable, cannot build an estimate plan")
	}
	memo := &shapeMemo{Timer: t, seen: make(map[*trace.Shape]time.Duration)}
	if err := trace.Annotate(ctx, job, comms, sizes, memo, ann); err != nil {
		return nil, err
	}
	return &EstimatePlan{durs: ann.Detach()}, nil
}

// BuildEstimatePlan is BuildPlan with the suite as the timer.
func (s *Suite) BuildEstimatePlan(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int) (*EstimatePlan, error) {
	return BuildPlan(ctx, job, comms, sizes, s)
}

// shapeMemo is the timer one plan build walks with: device-op times
// are remembered by shape identity for the length of the build.
// Every Timer prices a kernel, memcpy or memset by its kind and its
// shape's fields, and all ops pointing to one interned shape have the
// same kind, so the pointer is the whole key: one timer call per shape
// per worker that interned it, and no hashing of dims or names.
// Collectives (whose time depends on communicator topology) and ops
// without a shape go straight to the timer behind it.
type shapeMemo struct {
	trace.Timer
	seen map[*trace.Shape]time.Duration
}

func (m *shapeMemo) EstimateKernel(op *trace.Op) time.Duration {
	if op.Shape == nil {
		return m.Timer.EstimateKernel(op)
	}
	d, hit := m.seen[op.Shape]
	if !hit {
		d = m.Timer.EstimateKernel(op)
		m.seen[op.Shape] = d
	}
	return d
}

// Fill copies the plan into the overlay, reporting false — leaving
// the overlay untouched — when the layouts do not match (an overlay
// bound to a different job).
func (p *EstimatePlan) Fill(ann *trace.Annotations) bool {
	return ann.FillFrom(p.durs)
}
