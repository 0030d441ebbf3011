package estimator

import (
	"context"
	"time"

	"maya/internal/trace"
)

// EstimatePlan is a capture-attached annotation plan: the resolved
// duration of every op of one immutable job against one timer (a
// learned suite or the silicon oracle), held as a trace.Annotations
// overlay bound to that job. Building it pays the timer once per
// distinct call of the job — each (kind, shape content) once, each
// collective signature once — and every later replay of the same
// (job, timer) pair reads the overlay in place: no copy, no hashing,
// no forest walks. A plan is immutable once built and its overlay
// read-only, so any number of concurrent replays may share it.
type EstimatePlan struct {
	ann *trace.Annotations
}

// BuildPlan resolves every device op of the job against the timer. It
// is annotation by construction — one trace.Annotate walk (behind a
// build-local callMemo) into a fresh overlay, which the plan keeps —
// so reading the plan reproduces the walk exactly and cannot drift
// from it. Cancellation of ctx is observed between workers.
func BuildPlan(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int, t trace.Timer) (*EstimatePlan, error) {
	ann := trace.NewAnnotations(job)
	memo := &callMemo{Timer: t, colls: make(map[collCall]time.Duration)}
	if err := trace.Annotate(ctx, job, comms, sizes, memo, ann); err != nil {
		return nil, err
	}
	return &EstimatePlan{ann: ann}, nil
}

// BuildEstimatePlan is BuildPlan with the suite as the timer.
func (s *Suite) BuildEstimatePlan(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int) (*EstimatePlan, error) {
	return BuildPlan(ctx, job, comms, sizes, s)
}

// devKinds bounds the kinds callMemo remembers kernels of: kernel,
// memcpy and memset, the ops trace.Annotate prices with EstimateKernel.
const devKinds = trace.KindMemset + 1

// callMemo is the timer one plan build walks with: it asks the timer
// behind it once per distinct call for the length of the build.
//
// Kernels, memcpys and memsets. Every Timer prices one by its kind
// and its shape's content, so the build keeps one content table, a
// plan-local trace.Shapes, and prices each (kind, content) it interns
// once for the whole job, whichever workers share it and through
// whichever pointers. An op reaches that table only on a miss: each
// kind has a slice indexed by Shape.Pos holding the shape last seen
// at that position and its duration, so an op whose shape sits there
// costs a slice index and a pointer compare. An op misses when
// another shape holds its position — every worker's table numbers
// from 0, and hand-built shapes all read 0 — and a miss costs one
// intern and takes the position over.
//
// Collectives. A Timer prices one by its arguments, so the memo keys
// on all of them, the rank list by identity: the same backing array
// and length hold the same ranks, because nobody writes to a list
// once trace.RankResolver has handed it out. The resolver hands every
// call of one communicator the same list, and every call of a
// communicator with no recorded membership the list of its rank and
// size, so each collective signature is priced once. A list that
// only equals another is a miss, never a wrong hit.
//
// Ops without a shape go straight to the timer behind it.
type callMemo struct {
	trace.Timer
	last    [devKinds][]pricedShape
	content trace.Shapes
	durs    [devKinds][]time.Duration // by content-table position
	colls   map[collCall]time.Duration
}

type pricedShape struct {
	shape *trace.Shape
	d     time.Duration
}

// collCall is what a Timer's EstimateCollective sees, the rank list
// by its first element's address and its length.
type collCall struct {
	op     string
	bytes  int64
	first  *int
	n      int
	nranks int
}

func (m *callMemo) EstimateKernel(op *trace.Op) time.Duration {
	s, k := op.Shape, op.Kind
	if s == nil || k >= devKinds {
		return m.Timer.EstimateKernel(op)
	}
	if p, last := s.Pos(), m.last[k]; p < len(last) && last[p].shape == s {
		return last[p].d
	}
	var d time.Duration
	if c := m.content.Intern(k, s); c.Pos() < len(m.durs[k]) {
		d = m.durs[k][c.Pos()]
	} else {
		d = m.Timer.EstimateKernel(op)
		m.durs[k] = append(m.durs[k], d)
	}
	p := s.Pos()
	if p >= len(m.last[k]) {
		m.last[k] = append(m.last[k], make([]pricedShape, p+1-len(m.last[k]))...)
	}
	m.last[k][p] = pricedShape{s, d}
	return d
}

func (m *callMemo) EstimateCollective(op string, bytes int64, ranks []int, nranks int) time.Duration {
	key := collCall{op: op, bytes: bytes, n: len(ranks), nranks: nranks}
	if len(ranks) > 0 {
		key.first = &ranks[0]
	}
	d, hit := m.colls[key]
	if !hit {
		d = m.Timer.EstimateCollective(op, bytes, ranks, nranks)
		m.colls[key] = d
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
