package sim

import (
	"time"

	"maya/internal/trace"
)

// StallBreakdown attributes one worker's idle time — everything that
// is neither compute nor communication on its device — to a cause.
// The categories partition idle time; attribution priority when
// causes overlap is collective-wait, then event-wait, then
// host-bound, with the unexplained remainder reported as pipeline
// bubble.
type StallBreakdown struct {
	// EventWait is idle time while a stream was parked on a
	// cudaStreamWaitEvent whose event had not been recorded.
	EventWait time.Duration
	// CollectiveWait is idle time between a stream arriving at a
	// collective and the last participant arriving — waiting for
	// stragglers, the paper's emergent pipeline-coupling cost.
	CollectiveWait time.Duration
	// HostBound is idle time overlapping measured host CPU stretches:
	// the device starved because the host was still dispatching.
	HostBound time.Duration
	// Bubble is the remaining idle time — dependency gaps with no
	// local cause, e.g. a pipeline stage waiting for activations that
	// are not yet in flight.
	Bubble time.Duration
	// Busy is the complement: the union of compute and communication
	// time on the worker's device. Busy + Idle() spans the worker's
	// run.
	Busy time.Duration
}

// Idle sums the attributed idle time.
func (s StallBreakdown) Idle() time.Duration {
	return s.EventWait + s.CollectiveWait + s.HostBound + s.Bubble
}

// Span is the worker's full simulated time, busy plus idle.
func (s StallBreakdown) Span() time.Duration { return s.Busy + s.Idle() }

// Breakdown is an Observer that attributes per-worker stall time. Use
// one per run:
//
//	bd := sim.NewBreakdown()
//	rep, err := sim.Run(ctx, job, sim.Options{Observer: bd})
//	stalls := bd.Result(rep)
//
// Result is terminal — it consumes the collected intervals.
type Breakdown struct {
	busy  [][]interval // compute + comm, per worker
	ev    [][]interval // event-wait stalls
	coll  [][]interval // collective straggler waits
	hostd [][]interval // measured host CPU stretches
}

// NewBreakdown returns an empty breakdown collector.
func NewBreakdown() *Breakdown { return &Breakdown{} }

func grow(g [][]interval, w int) [][]interval {
	for len(g) <= w {
		g = append(g, nil)
	}
	return g
}

func (b *Breakdown) add(g *[][]interval, w int, start, end int64, comm bool) {
	if end <= start {
		return
	}
	*g = grow(*g, w)
	(*g)[w] = append((*g)[w], interval{start: start, end: end, comm: comm})
}

// OpEnd implements Observer.
func (b *Breakdown) OpEnd(w int, _ int64, _ *trace.Op, start, end int64) {
	b.add(&b.busy, w, start, end, false)
}

// CollectiveFired implements Observer.
func (b *Breakdown) CollectiveFired(w int, _ int64, _ *trace.Op, _ trace.CollKey, start, end int64) {
	b.add(&b.busy, w, start, end, true)
}

// StallEnd implements Observer.
func (b *Breakdown) StallEnd(w int, _ int64, kind StallKind, begin, end int64) {
	if kind == StallCollective {
		b.add(&b.coll, w, begin, end, false)
	} else {
		b.add(&b.ev, w, begin, end, false)
	}
}

// HostDelay implements Observer.
func (b *Breakdown) HostDelay(w int, start, end int64) {
	b.add(&b.hostd, w, start, end, false)
}

// Mark implements Observer.
func (b *Breakdown) Mark(int, string, int64) {}

// Result attributes each worker's idle time against the finished
// run's report (which supplies the per-worker span). The slice is
// indexed like the report's per-worker fields.
func (b *Breakdown) Result(r *Report) []StallBreakdown {
	out := make([]StallBreakdown, len(r.HostEnd))
	for w := range out {
		span := int64(r.HostEnd[w])
		var busyU, evU, collU, hostU []interval
		if w < len(b.busy) {
			busyU = unionize(b.busy[w])
		}
		if w < len(b.ev) {
			evU = unionize(b.ev[w])
		}
		if w < len(b.coll) {
			collU = unionize(b.coll[w])
		}
		if w < len(b.hostd) {
			hostU = unionize(b.hostd[w])
		}
		idle := complementWithin(busyU, span)
		cw := overlapLen(idle, collU)
		idle = subtractSets(idle, collU)
		ew := overlapLen(idle, evU)
		idle = subtractSets(idle, evU)
		hb := overlapLen(idle, hostU)
		rest := unionLen(idle) - hb
		out[w] = StallBreakdown{
			EventWait:      time.Duration(ew),
			CollectiveWait: time.Duration(cw),
			HostBound:      time.Duration(hb),
			Bubble:         time.Duration(rest),
			Busy:           time.Duration(unionLen(busyU)),
		}
	}
	return out
}
