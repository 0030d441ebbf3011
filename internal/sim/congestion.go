package sim

import "maya/internal/trace"

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

// congFlow is one in-flight collective under congestion. latRem
// drains in real time; workRem drains at rate 1/factor.
type congFlow struct {
	key     trace.CollKey
	links   []int32 // aliases the demand's slice; dropped on finish
	group   *collGroup
	latRem  int64
	workRem int64
	factor  int64 // current slowdown; 0 = sentinel forcing first tune
	lastUpd int64 // sim time progress has been accrued to
	started int64
	epoch   int64 // invalidates superseded completion events
	active  bool
}

// fireFlow converts a released collective group into a congestion
// flow: stalls end at startAt, but the completion is resolved against
// link occupancy. dur is the post-jitter annotated duration. A group
// can release with a start time still in the future (host enqueue
// times run ahead of device time); its links are then occupied from
// startAt, via an evFlowStart event, not from the release instant.
func (e *Engine) fireFlow(key trace.CollKey, g *collGroup, d CollDemand, startAt, dur int64) {
	var f *congFlow
	if n := len(e.freeFlows); n > 0 {
		f = e.freeFlows[n-1]
		e.freeFlows[n-1] = nil
		e.freeFlows = e.freeFlows[:n-1]
	} else {
		f = &congFlow{}
	}
	lat := min(d.Lat, dur)
	if lat < 0 {
		lat = 0
	}
	f.key, f.links, f.group = key, d.Links, g
	f.latRem, f.workRem = lat, dur-lat
	f.factor, f.lastUpd, f.started = 0, startAt, startAt
	f.active = true
	if e.obs != nil {
		for i, p := range g.arrived {
			e.obs.StallEnd(p.w, p.id, StallCollective, g.arriveAt[i], startAt)
		}
	}
	if startAt > e.now {
		f.epoch++
		e.push(simEvent{t: startAt, kind: evFlowStart, flow: f, arg: f.epoch})
		return
	}
	e.startFlow(f)
}

// startFlow joins a flow into the occupancy model.
func (e *Engine) startFlow(f *congFlow) {
	// A release instant after the start time (both can trail sim time)
	// means the flow already ran uncontended for the gap: drain it at
	// full rate before occupancy tracking begins.
	if e.now > f.lastUpd {
		el := e.now - f.lastUpd
		f.lastUpd = e.now
		if f.latRem > 0 {
			d := min(el, f.latRem)
			f.latRem -= d
			el -= d
		}
		if el > 0 {
			f.workRem -= min(el, f.workRem)
		}
	}
	e.flows = append(e.flows, f)
	for _, l := range f.links {
		e.linkUse[l]++
	}
	e.retuneFlows()
}

// flowStart handles a deferred flow start event.
func (e *Engine) flowStart(f *congFlow, epoch int64) {
	if !f.active || f.epoch != epoch {
		return
	}
	e.startFlow(f)
}

// flowFactor is the slowdown of a flow right now: the worst
// overcommit ceil(use/width) across the link domains it occupies.
func (e *Engine) flowFactor(f *congFlow) int64 {
	factor := int64(1)
	for _, l := range f.links {
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

// advanceFlow accrues a flow's progress from lastUpd to now at its
// current factor: latency drains in real time, then work at rate
// 1/factor (integer floor — deterministic and conservative).
func (e *Engine) advanceFlow(f *congFlow) {
	if e.now <= f.lastUpd {
		return
	}
	el := e.now - f.lastUpd
	f.lastUpd = e.now
	if f.factor <= 0 {
		return
	}
	if f.latRem > 0 {
		d := min(el, f.latRem)
		f.latRem -= d
		el -= d
	}
	if el > 0 && f.workRem > 0 {
		done := el / f.factor
		if done > f.workRem {
			done = f.workRem
		}
		f.workRem -= done
	}
}

// retuneFlows re-evaluates every active flow's factor after link
// occupancy changed, rescheduling completions whose rate moved. Flows
// are visited in start order, so the event sequence is deterministic.
func (e *Engine) retuneFlows() {
	for _, f := range e.flows {
		nf := e.flowFactor(f)
		if nf == f.factor {
			continue
		}
		e.advanceFlow(f)
		f.factor = nf
		f.epoch++
		e.push(simEvent{t: f.lastUpd + f.latRem + f.workRem*nf, kind: evFlowDone, flow: f, arg: f.epoch})
	}
}

// flowDone handles a flow completion event. Stale epochs are
// completions superseded by a retune.
func (e *Engine) flowDone(f *congFlow, epoch int64) {
	if !f.active || f.epoch != epoch {
		return
	}
	e.advanceFlow(f)
	if f.latRem > 0 || f.workRem > 0 {
		// Integer rounding left a residue; finish it at the current rate.
		f.epoch++
		e.push(simEvent{t: f.lastUpd + f.latRem + f.workRem*f.factor, kind: evFlowDone, flow: f, arg: f.epoch})
		return
	}
	f.active = false
	for i, x := range e.flows {
		if x == f {
			copy(e.flows[i:], e.flows[i+1:])
			e.flows[len(e.flows)-1] = nil
			e.flows = e.flows[:len(e.flows)-1]
			break
		}
	}
	for _, l := range f.links {
		e.linkUse[l]--
	}
	e.retuneFlows()

	g, end := f.group, e.now
	for _, p := range g.arrived {
		p.ivals[p.head] = interval{start: f.started, end: end, comm: true}
		if e.obs != nil {
			e.obs.CollectiveFired(p.w, p.id, e.headOp(p), f.key, f.started, end)
		}
		p.stalledCol = false
		p.head++
		p.freeAt = max(p.freeAt, end)
		e.kickStream(p)
		e.notifyDrain(p.w)
	}
	e.recycleColl(g)
	f.group, f.links = nil, nil
	e.freeFlows = append(e.freeFlows, f)
	// epoch deliberately survives recycling: any stale events of this
	// incarnation still in the heap carry older epochs and are dropped.
	// Absolute epoch values never influence event times or ordering,
	// so pooled and fresh engines stay bit-identical.
}
