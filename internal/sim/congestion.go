package sim

import (
	"slices"

	"maya/internal/trace"
)

// CollDemand is one collective's network footprint: the link domains
// its traffic occupies (topo link-domain ids, ascending) and the
// latency portion of its duration, in nanoseconds. The annotated
// duration stays authoritative — congestion stretches only the
// bandwidth-bound remainder (annotated duration minus Lat), so a
// collective that never shares a link completes exactly as annotated.
type CollDemand struct {
	Links []int32
	Lat   int64
}

// CongestionModel makes collective durations resolve against a
// shared-link occupancy model instead of replaying verbatim: when
// concurrently-active collectives occupy the same link domain beyond
// its width, each flow on that domain is slowed by the overcommit
// factor ceil(active/width), re-evaluated at every flow start and
// finish. Collectives whose key has no demand (or an empty link set)
// fall back to the fixed-duration path.
//
// The model is an integer fluid simulation inside the deterministic
// event loop: progress accrues in whole nanoseconds at rate 1/factor,
// retuned at flow boundaries, so results are bit-identical across
// runs, engine pooling and worker counts.
type CongestionModel struct {
	// Widths is the per-link-domain capacity (topo.LinkWidths): a
	// domain of width k serves k concurrent flows at full rate.
	Widths []int32
	// Demands maps collective calls to their footprints.
	Demands map[trace.CollKey]CollDemand
}

// fireFlow puts a released call on the congested wire: stalls end at
// startAt, but the completion is resolved against link occupancy. dur
// is the post-jitter annotated duration. A call can release with a
// start time still in the future (host enqueue times run ahead of
// device time); its links are then occupied from startAt, via an
// evFlowStart event, not from the release instant.
func (e *Engine) fireFlow(key trace.CollKey, g *collGroup, d CollDemand, startAt, dur int64) {
	lat := min(max(d.Lat, 0), dur)
	g.key, g.links = key, d.Links
	g.latRem, g.workRem = lat, dur-lat
	g.factor, g.lastUpd, g.started = 0, startAt, startAt
	if e.obs != nil {
		for i, p := range g.arrived {
			e.obs.StallEnd(p.w, p.id, StallCollective, g.arriveAt[i], startAt)
		}
	}
	if startAt > e.now {
		g.epoch++
		e.push(simEvent{t: startAt, kind: evFlowStart, coll: g, arg: g.epoch})
		return
	}
	e.startFlow(g)
}

// startFlow joins a call into the occupancy model.
func (e *Engine) startFlow(g *collGroup) {
	// A release instant after the start time (both can trail sim time)
	// means the call already ran uncontended for the gap: drain it at
	// full rate before occupancy tracking begins.
	g.advance(e.now, 1)
	e.flows = append(e.flows, g)
	for _, l := range g.links {
		e.linkUse[l]++
	}
	e.retuneFlows()
}

// flowStart handles a deferred start event.
func (e *Engine) flowStart(g *collGroup, epoch int64) {
	if g.epoch == epoch {
		e.startFlow(g)
	}
}

// flowFactor is the slowdown of a call on the wire right now: the
// worst overcommit ceil(use/width) across the link domains it
// occupies.
func (e *Engine) flowFactor(g *collGroup) int64 {
	factor := int64(1)
	for _, l := range g.links {
		w := e.cong.Widths[l]
		if w < 1 {
			w = 1
		}
		if c := int64((e.linkUse[l] + w - 1) / w); c > factor {
			factor = c
		}
	}
	return factor
}

// advance accrues the call's progress from lastUpd to now at slowdown
// factor: latency drains in real time, then work at rate 1/factor
// (integer floor — deterministic and conservative). A call not yet
// tuned (factor 0) only moves its clock.
func (g *collGroup) advance(now, factor int64) {
	if now <= g.lastUpd {
		return
	}
	el := now - g.lastUpd
	g.lastUpd = now
	if factor <= 0 {
		return
	}
	lat := min(el, g.latRem)
	g.latRem -= lat
	g.workRem -= min((el-lat)/factor, g.workRem)
}

// finishAt schedules the call's completion at its current rate,
// voiding any earlier one.
func (e *Engine) finishAt(g *collGroup) {
	g.epoch++
	e.push(simEvent{t: g.lastUpd + g.latRem + g.workRem*g.factor, kind: evFlowDone, coll: g, arg: g.epoch})
}

// retuneFlows re-evaluates every call on the wire after link occupancy
// changed, rescheduling completions whose rate moved. Calls are visited
// in start order, so the event sequence is deterministic.
func (e *Engine) retuneFlows() {
	for _, g := range e.flows {
		nf := e.flowFactor(g)
		if nf == g.factor {
			continue
		}
		g.advance(e.now, g.factor)
		g.factor = nf
		e.finishAt(g)
	}
}

// flowDone handles a completion event of a call on the wire. Stale
// epochs are completions superseded by a retune. A finished call leaves
// the wire, and its participants are released in arrival order.
func (e *Engine) flowDone(g *collGroup, epoch int64) {
	if g.epoch != epoch {
		return
	}
	g.advance(e.now, g.factor)
	if g.latRem > 0 || g.workRem > 0 {
		// Integer rounding left a residue; finish it at the current rate.
		e.finishAt(g)
		return
	}
	i := slices.Index(e.flows, g)
	e.flows = slices.Delete(e.flows, i, i+1)
	for _, l := range g.links {
		e.linkUse[l]--
	}
	e.retuneFlows()

	for _, p := range g.arrived {
		p.ivals[p.head] = interval{start: g.started, end: e.now, comm: true}
		if e.obs != nil {
			e.obs.CollectiveFired(p.w, p.id, e.headOp(p), g.key, g.started, e.now)
		}
		e.release(p, e.now)
	}
	e.recycleColl(g)
}
