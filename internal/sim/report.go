package sim

import (
	"math"
	"sort"
	"time"

	"maya/internal/trace"
)

// MarkAt is an application annotation with its simulated host time.
type MarkAt struct {
	Label string
	At    time.Duration
}

// Report is the output of a simulation run.
type Report struct {
	// Truncated marks a run stopped at Options.TimeLimit before the
	// trace drained: the report describes the event prefix up to the
	// horizon (every field is a lower bound on the full run), and the
	// true makespan is known to exceed the limit.
	Truncated bool
	// Halted marks a fail-stop run that wedged: the injected worker
	// froze and survivors stalled on its collectives until the event
	// heap drained. HostEnd holds each worker's stall frontier.
	Halted bool
	// Makespan is the completion time of the slowest worker.
	Makespan time.Duration
	// HostEnd is each worker's host completion time.
	HostEnd []time.Duration
	// Marks holds each worker's application annotations in order.
	Marks [][]MarkAt
	// ComputeBusy is, per worker, the union length of compute/memory
	// op intervals.
	ComputeBusy []time.Duration
	// CommBusy is, per worker, the union length of collective
	// intervals.
	CommBusy []time.Duration
	// ExposedComm is, per worker, collective time not hidden behind
	// compute — the cost pipeline overlap tries to remove.
	ExposedComm []time.Duration
}

// buildReport snapshots the run into a Report. Every slice is a deep
// copy: a report never aliases engine storage, so resetting or
// pooling the engine cannot mutate a caller's report.
func (e *Engine) buildReport() *Report {
	n := len(e.hosts)
	r := &Report{
		HostEnd:     make([]time.Duration, n),
		Marks:       make([][]MarkAt, n),
		ComputeBusy: make([]time.Duration, n),
		CommBusy:    make([]time.Duration, n),
		ExposedComm: make([]time.Duration, n),
	}
	for i := range e.hosts {
		h := &e.hosts[i]
		if len(e.marks[i]) > 0 {
			r.Marks[i] = append([]MarkAt(nil), e.marks[i]...)
		}
		end := h.t
		for _, st := range e.byWorker[i] {
			end = max(end, st.freeAt)
		}
		r.HostEnd[i] = time.Duration(end)
		if r.HostEnd[i] > r.Makespan {
			r.Makespan = r.HostEnd[i]
		}
		runs := e.busy.runs[:0]
		for _, st := range e.byWorker[i] {
			runs = append(runs, st.busy())
		}
		e.busy.runs = runs
		comp, comm, exposed := mergeBusy(runs, &e.busy)
		r.ComputeBusy[i] = comp
		r.CommBusy[i] = comm
		r.ExposedComm[i] = exposed
	}
	return r
}

// busyScratch is mergeBusy's reusable state; a zero value is ready to
// use, and a kept scratch makes repeated calls allocation-free at
// steady state.
type busyScratch struct {
	runs         [][]interval
	comps, comms []interval
}

// mergeBusy computes union lengths of compute and comm intervals and
// the exposed (non-overlapped) communication time. Each run is one
// stream's intervals in start order, as a FIFO stream starts them, so
// a k-way merge meets every interval in start order and folds it into
// its class's union on the fly: nothing is sorted. Intervals of zero
// or negative length count for nothing. The merge consumes runs; the
// scratch may be nil, and its contents are invalidated by the next
// call.
func mergeBusy(runs [][]interval, s *busyScratch) (compute, comm, exposed time.Duration) {
	if s == nil {
		s = &busyScratch{}
	}
	comps, comms := s.comps[:0], s.comms[:0]
	for {
		// The run with the earliest next interval, and the earliest
		// next start of every other run: the first run can be drained
		// up to that bound before another run's interval is due.
		next, bound := -1, int64(math.MaxInt64)
		for r, run := range runs {
			for len(run) > 0 && run[0].end <= run[0].start {
				run = run[1:]
			}
			runs[r] = run
			switch {
			case len(run) == 0:
			case next < 0 || run[0].start < runs[next][0].start:
				if next >= 0 {
					bound = runs[next][0].start
				}
				next = r
			default:
				bound = min(bound, run[0].start)
			}
		}
		if next < 0 {
			break
		}
		run := runs[next]
		for ; len(run) > 0 && run[0].start <= bound; run = run[1:] {
			switch iv := run[0]; {
			case iv.end <= iv.start:
			case iv.comm:
				comms = extend(comms, iv)
			default:
				comps = extend(comps, iv)
			}
		}
		runs[next] = run
	}
	s.comps, s.comms = comps, comms
	compLen, commLen := unionLen(comps), unionLen(comms)
	return time.Duration(compLen), time.Duration(commLen), time.Duration(commLen - overlapLen(comms, comps))
}

// extend folds iv into the sorted disjoint set u, no interval of
// which starts after iv.
func extend(u []interval, iv interval) []interval {
	if n := len(u); n > 0 && iv.start <= u[n-1].end {
		u[n-1].end = max(u[n-1].end, iv.end)
		return u
	}
	return append(u, iv)
}

// unionize merges overlapping intervals into a sorted disjoint set.
func unionize(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := ivs[:0]
	for _, iv := range ivs {
		out = extend(out, iv)
	}
	return out
}

func unionLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.end - iv.start
	}
	return n
}

// overlapLen returns the total length of the intersection of two
// disjoint sorted interval sets.
func overlapLen(a, b []interval) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max(a[i].start, b[j].start)
		hi := min(a[i].end, b[j].end)
		if hi > lo {
			n += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return n
}

// complementWithin returns [0, end) minus the disjoint sorted set u —
// the idle time of a worker whose busy union is u.
func complementWithin(u []interval, end int64) []interval {
	var out []interval
	var cursor int64
	for _, iv := range u {
		if iv.start >= end {
			break
		}
		if iv.start > cursor {
			out = append(out, interval{start: cursor, end: iv.start})
		}
		if iv.end > cursor {
			cursor = iv.end
		}
	}
	if cursor < end {
		out = append(out, interval{start: cursor, end: end})
	}
	return out
}

// subtractSets returns a \ b for disjoint sorted interval sets.
func subtractSets(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.start
		for j < len(b) && b[j].end <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].start < iv.end {
			if b[k].start > lo {
				out = append(out, interval{start: lo, end: b[k].start})
			}
			if b[k].end > lo {
				lo = b[k].end
			}
			k++
		}
		if lo < iv.end {
			out = append(out, interval{start: lo, end: iv.end})
		}
	}
	return out
}

// IterEnds returns, for each iteration boundary index, the latest
// iter_end mark across workers — the time the slowest worker finished
// that iteration.
func (r *Report) IterEnds() []time.Duration {
	var ends []time.Duration
	for _, marks := range r.Marks {
		idx := 0
		for _, m := range marks {
			if m.Label != trace.MarkIterEnd {
				continue
			}
			if idx == len(ends) {
				ends = append(ends, m.At)
			} else if m.At > ends[idx] {
				ends[idx] = m.At
			}
			idx++
		}
	}
	return ends
}

// setupEnd returns the latest setup_end mark across workers, or zero.
func (r *Report) setupEnd() time.Duration {
	var t time.Duration
	for _, marks := range r.Marks {
		for _, m := range marks {
			if m.Label == trace.MarkSetupEnd && m.At > t {
				t = m.At
			}
		}
	}
	return t
}

// IterTime returns the steady-state per-iteration time: the mean gap
// between consecutive iteration boundaries when the trace holds
// several iterations (excluding the first, which carries warmup), or
// the single iteration's span otherwise.
func (r *Report) IterTime() time.Duration {
	ends := r.IterEnds()
	switch len(ends) {
	case 0:
		return r.Makespan
	case 1:
		return ends[0] - r.setupEnd()
	default:
		return (ends[len(ends)-1] - ends[0]) / time.Duration(len(ends)-1)
	}
}
