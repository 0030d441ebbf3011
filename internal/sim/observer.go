package sim

import "maya/internal/trace"

// StallKind classifies why a stream stopped making progress.
type StallKind uint8

const (
	// StallEvent is a cudaStreamWaitEvent on a not-yet-recorded event.
	StallEvent StallKind = iota
	// StallCollective is a collective waiting for straggler ranks.
	StallCollective
)

// String implements fmt.Stringer.
func (k StallKind) String() string {
	switch k {
	case StallEvent:
		return "event-wait"
	case StallCollective:
		return "collective-wait"
	}
	return "stall"
}

// Observer receives engine callbacks at CUDA-API granularity. Attach
// one through Options.Observer; a nil observer adds no per-event cost
// to the loop (one predictable branch).
//
// The contract:
//
//   - Callbacks are synchronous, from the engine's single goroutine.
//     Observers must not call back into the engine and must not
//     retain *trace.Op pointers past the call — pooled engines rebind
//     to new jobs.
//   - Timed ops are reported per stream in op order: an op's OpStart
//     and OpEnd arrive together, by the event that retires its
//     dispatch chain, both with its own final [start, end). A run
//     truncated at its TimeLimit delivers none for a chain retiring
//     past the horizon. Other callbacks arrive in simulation order.
//   - Times are simulated nanoseconds since run start.
//   - StallEnd's end is when the blocker resolved: for StallEvent the
//     recorded event's completion, for StallCollective the moment the
//     last participant arrived (the collective's wire time follows as
//     CollectiveFired, not stall).
//   - CollectiveFired is delivered once per participant, with that
//     participant's worker/stream.
type Observer interface {
	// OpStart: a timed device op (kernel, memcpy, memset) ran on a
	// stream from start.
	OpStart(w int, stream int64, op *trace.Op, start, end int64)
	// OpEnd: the op completed at end.
	OpEnd(w int, stream int64, op *trace.Op, start, end int64)
	// CollectiveFired: a collective this worker participates in ran
	// over the wire during [start, end).
	CollectiveFired(w int, stream int64, op *trace.Op, key trace.CollKey, start, end int64)
	// StallBegin: the stream stopped, blocked on kind.
	StallBegin(w int, stream int64, kind StallKind, at int64)
	// StallEnd: the blocker resolved; the stall spanned [begin, end).
	StallEnd(w int, stream int64, kind StallKind, begin, end int64)
	// HostDelay: the worker's host thread spent [start, end) between
	// API calls (measured CPU time from the emulation).
	HostDelay(w int, start, end int64)
	// Mark: the workload hit an application annotation at time at.
	Mark(w int, label string, at int64)
}

// multiObserver fans callbacks out to several observers in order.
type multiObserver []Observer

func (m multiObserver) OpStart(w int, stream int64, op *trace.Op, start, end int64) {
	for _, o := range m {
		o.OpStart(w, stream, op, start, end)
	}
}

func (m multiObserver) OpEnd(w int, stream int64, op *trace.Op, start, end int64) {
	for _, o := range m {
		o.OpEnd(w, stream, op, start, end)
	}
}

func (m multiObserver) CollectiveFired(w int, stream int64, op *trace.Op, key trace.CollKey, start, end int64) {
	for _, o := range m {
		o.CollectiveFired(w, stream, op, key, start, end)
	}
}

func (m multiObserver) StallBegin(w int, stream int64, kind StallKind, at int64) {
	for _, o := range m {
		o.StallBegin(w, stream, kind, at)
	}
}

func (m multiObserver) StallEnd(w int, stream int64, kind StallKind, begin, end int64) {
	for _, o := range m {
		o.StallEnd(w, stream, kind, begin, end)
	}
}

func (m multiObserver) HostDelay(w int, start, end int64) {
	for _, o := range m {
		o.HostDelay(w, start, end)
	}
}

func (m multiObserver) Mark(w int, label string, at int64) {
	for _, o := range m {
		o.Mark(w, label, at)
	}
}

// Observers composes observers into one, skipping nils: it returns
// nil for an all-nil list (keeping the loop's nil fast path) and the
// observer itself when only one remains.
func Observers(obs ...Observer) Observer {
	var live multiObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
