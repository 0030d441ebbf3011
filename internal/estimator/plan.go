package estimator

import (
	"context"
	"time"

	"maya/internal/trace"
)

// EstimatePlan is a capture-attached annotation plan: the resolved
// duration of every op of one immutable job against one timer (a
// learned suite or the silicon oracle), held as a trace.Annotations
// overlay bound to that job. Building it pays the timer once — each
// interned trace.Shape is priced once, every collective gets one
// topology lookup — and every later replay of the same (job, timer)
// pair reads the overlay in place: no copy, no hashing, no forest
// walks. A plan is immutable once built and its overlay read-only, so
// any number of concurrent replays may share it.
type EstimatePlan struct {
	ann *trace.Annotations
}

// BuildPlan resolves every device op of the job against the timer. It
// is annotation by construction — one trace.Annotate walk (behind a
// build-local shapeMemo) into a fresh overlay, which the plan keeps —
// so reading the plan reproduces the walk exactly and cannot drift
// from it. Cancellation of ctx is observed between workers.
func BuildPlan(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int, t trace.Timer) (*EstimatePlan, error) {
	ann := trace.NewAnnotations(job)
	memo := &shapeMemo{Timer: t, seen: make(map[*trace.Shape]time.Duration)}
	if err := trace.Annotate(ctx, job, comms, sizes, memo, ann); err != nil {
		return nil, err
	}
	return &EstimatePlan{ann: ann}, nil
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

// Overlay returns the plan as the duration overlay sim.Options takes,
// bound to the job the plan was built for. It is read-only: replays
// share it.
func (p *EstimatePlan) Overlay() *trace.Annotations { return p.ann }

// Fill copies the plan into another overlay, reporting false — leaving
// it untouched — when the layouts do not match (an overlay bound to a
// different job). Replays read Overlay in place; Fill serves bench/'s
// engine rungs and the tests.
func (p *EstimatePlan) Fill(ann *trace.Annotations) bool {
	return ann.FillFrom(p.ann.Table())
}
