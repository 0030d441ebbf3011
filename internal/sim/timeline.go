package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"maya/internal/trace"
)

// Timeline is an Observer that records the run as a Chrome-trace
// ("trace event format") timeline loadable in chrome://tracing and
// Perfetto: one process per worker, one thread per stream (plus a
// "host" thread), complete events for kernels/memops/collectives/
// stalls/host stretches and instant events for application marks.
//
// Use one Timeline per run; it is not safe for concurrent runs.
// Times are emitted in microseconds, the format's unit.
type Timeline struct {
	events []chromeEvent
}

// NewTimeline returns an empty timeline recorder.
func NewTimeline() *Timeline { return &Timeline{} }

// hostTID is the synthetic thread id of a worker's host track.
// Stream handles are non-negative, so -1 cannot collide.
const hostTID = -1

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// Len reports how many timeline events have been recorded.
func (t *Timeline) Len() int { return len(t.events) }

// OpEnd implements Observer.
func (t *Timeline) OpEnd(w int, stream int64, op *trace.Op, start, end int64) {
	name := op.Name
	if name == "" {
		name = op.Kind.String()
	}
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: op.Kind.String(), Ph: "X",
		TS: usec(start), Dur: usec(end - start), PID: w, TID: stream,
	})
}

// CollectiveFired implements Observer.
func (t *Timeline) CollectiveFired(w int, stream int64, op *trace.Op, key trace.CollKey, start, end int64) {
	t.events = append(t.events, chromeEvent{
		Name: op.Coll.Op, Cat: "collective", Ph: "X",
		TS: usec(start), Dur: usec(end - start), PID: w, TID: stream,
		Args: map[string]any{
			"comm":  fmt.Sprintf("%#x", op.Coll.CommID),
			"seq":   op.Coll.Seq,
			"bytes": op.Coll.Bytes,
		},
	})
}

// StallEnd implements Observer.
func (t *Timeline) StallEnd(w int, stream int64, kind StallKind, begin, end int64) {
	if end <= begin {
		return
	}
	t.events = append(t.events, chromeEvent{
		Name: kind.String(), Cat: "stall", Ph: "X",
		TS: usec(begin), Dur: usec(end - begin), PID: w, TID: stream,
	})
}

// HostDelay implements Observer.
func (t *Timeline) HostDelay(w int, start, end int64) {
	if end <= start {
		return
	}
	t.events = append(t.events, chromeEvent{
		Name: "host", Cat: "host", Ph: "X",
		TS: usec(start), Dur: usec(end - start), PID: w, TID: hostTID,
	})
}

// Mark implements Observer.
func (t *Timeline) Mark(w int, label string, at int64) {
	t.events = append(t.events, chromeEvent{
		Name: label, Cat: "mark", Ph: "i",
		TS: usec(at), PID: w, TID: hostTID, S: "p",
	})
}

// WriteChromeTrace emits the recorded run in Chrome trace-event JSON,
// prefixed with process/thread metadata naming workers, streams and
// host tracks. Events appear in the order the observer heard them;
// the output is deterministic for a deterministic run.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	type track struct {
		pid int
		tid int64
	}
	pids := map[int]bool{}
	tracks := map[track]bool{}
	for _, ev := range t.events {
		pids[ev.PID] = true
		tracks[track{ev.PID, ev.TID}] = true
	}
	meta := make([]chromeEvent, 0, len(pids)+len(tracks))
	for _, pid := range sortedKeys(pids) {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", pid)},
		})
	}
	trs := make([]track, 0, len(tracks))
	for tr := range tracks {
		trs = append(trs, tr)
	}
	sort.Slice(trs, func(i, j int) bool {
		if trs[i].pid != trs[j].pid {
			return trs[i].pid < trs[j].pid
		}
		return trs[i].tid < trs[j].tid
	})
	for _, tr := range trs {
		name := fmt.Sprintf("stream %d", tr.tid)
		if tr.tid == hostTID {
			name = "host"
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tr.pid, TID: tr.tid,
			Args: map[string]any{"name": name},
		})
	}
	out := chromeTrace{
		TraceEvents:     append(meta, t.events...),
		DisplayTimeUnit: "ms",
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
