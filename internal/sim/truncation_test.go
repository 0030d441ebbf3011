package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// recEvent is one observer callback, flattened for comparison.
type recEvent struct {
	kind   string
	w      int
	stream int64
	seq    int
	stall  StallKind
	label  string
	a, b   int64
}

// recorder captures every observer callback in arrival order.
type recorder struct{ events []recEvent }

func (r *recorder) OpEnd(w int, stream int64, op *trace.Op, start, end int64) {
	r.events = append(r.events, recEvent{kind: "opEnd", w: w, stream: stream, seq: op.Seq, a: start, b: end})
}

func (r *recorder) CollectiveFired(w int, stream int64, op *trace.Op, key trace.CollKey, start, end int64) {
	r.events = append(r.events, recEvent{kind: "coll", w: w, stream: stream, seq: op.Seq, a: start, b: end})
}

func (r *recorder) StallEnd(w int, stream int64, kind StallKind, begin, end int64) {
	r.events = append(r.events, recEvent{kind: "stallEnd", w: w, stream: stream, stall: kind, a: begin, b: end})
}

func (r *recorder) HostDelay(w int, start, end int64) {
	r.events = append(r.events, recEvent{kind: "hostDelay", w: w, a: start, b: end})
}

func (r *recorder) Mark(w int, label string, at int64) {
	r.events = append(r.events, recEvent{kind: "mark", w: w, label: label, a: at})
}

// TestTimeLimitCongestionPrefixExact crosses the two features that
// each reshape the event walk — the congestion solver (flow retuning
// events) and the simulated-clock horizon. A truncated congested run
// must process exactly the untruncated run's event prefix: same
// callbacks, same times, same order, for any engine strategy.
func TestTimeLimitCongestionPrefixExact(t *testing.T) {
	// Staggered pair collectives on one shared width-1 link, with
	// compute before and after: flows retune mid-run (arrival at 1ms,
	// departure at 3ms) and activity continues past every horizon.
	j := job(t,
		worker(0, 4, collOn(0, 1, 0, 2, 0, 2*time.Millisecond), kernel(0, time.Millisecond)),
		worker(1, 4, collOn(0, 1, 0, 2, 1, 2*time.Millisecond), kernel(0, time.Millisecond)),
		worker(2, 4, hostDelay(time.Millisecond), collOn(0, 2, 0, 2, 0, 2*time.Millisecond), kernel(0, time.Millisecond)),
		worker(3, 4, hostDelay(time.Millisecond), collOn(0, 2, 0, 2, 1, 2*time.Millisecond), kernel(0, time.Millisecond)),
	)
	cong := &CongestionModel{
		Widths: []int32{1},
		Demands: map[trace.CollKey]CollDemand{
			key(1, 0): {Links: []int32{0}},
			key(2, 0): {Links: []int32{0}},
		},
	}

	full := &recorder{}
	rep := mustRun(t, j, Options{Congestion: cong, Observer: full})
	if rep.Truncated {
		t.Fatal("unlimited run reported truncation")
	}
	if len(full.events) == 0 {
		t.Fatal("no events recorded")
	}

	for _, limit := range []time.Duration{
		500 * time.Microsecond,  // mid first flow, before the retune
		1500 * time.Microsecond, // both flows sharing the link
		3500 * time.Microsecond, // past departure, into the tail compute
	} {
		part := &recorder{}
		rt, err := Run(context.Background(), j, Options{Congestion: cong, Observer: part, TimeLimit: limit})
		if err != nil {
			t.Fatalf("limit %v: %v", limit, err)
		}
		if !rt.Truncated {
			t.Fatalf("limit %v: run not truncated", limit)
		}
		if len(part.events) == 0 || len(part.events) >= len(full.events) {
			t.Fatalf("limit %v: %d events of %d, want a proper prefix", limit, len(part.events), len(full.events))
		}
		if !reflect.DeepEqual(part.events, full.events[:len(part.events)]) {
			t.Fatalf("limit %v: truncated run is not an exact prefix:\n got %+v\nwant %+v",
				limit, part.events, full.events[:len(part.events)])
		}

		// The same cut is bit-identical through the engine pool.
		pooled := &recorder{}
		rp, err := RunPooled(context.Background(), j, Options{Congestion: cong, Observer: pooled, TimeLimit: limit})
		if err != nil {
			t.Fatalf("limit %v pooled: %v", limit, err)
		}
		if !rp.Truncated || !reflect.DeepEqual(pooled.events, part.events) {
			t.Fatalf("limit %v: pooled run diverged from fresh engine", limit)
		}
		if !reflect.DeepEqual(rp, rt) {
			t.Fatalf("limit %v: pooled report diverged:\n got %+v\nwant %+v", limit, rp, rt)
		}
	}
}

// TestTruncatedReportCountsFiredCollectives cuts a run while one
// collective is on the wire and another still waits for its peer. The
// report counts the fired call's whole interval, as it counts a
// running kernel's, and nothing for the call that has not fired — also
// on an engine whose previous, uncut run of the job fired it.
func TestTruncatedReportCountsFiredCollectives(t *testing.T) {
	j := job(t,
		worker(0, 2, coll(1, 1, 0, 2, 0, 4*time.Millisecond), kernel(2, 3*time.Millisecond), coll(3, 2, 0, 2, 0, time.Millisecond)),
		worker(1, 2, coll(1, 1, 0, 2, 1, 4*time.Millisecond), trace.Op{Kind: trace.KindDeviceSync}, coll(3, 2, 0, 2, 1, time.Millisecond)),
	)
	e := NewEngine()
	e.Reset(j, Options{})
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reused := func(ctx context.Context, j *trace.Job, opts Options) (*Report, error) {
		e.Reset(j, opts)
		return e.Run(ctx)
	}
	for _, run := range []func(context.Context, *trace.Job, Options) (*Report, error){Run, reused} {
		r, err := run(context.Background(), j, Options{TimeLimit: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Truncated {
			t.Fatal("run not truncated")
		}
		want := [][3]time.Duration{
			{3 * time.Millisecond, 4 * time.Millisecond, time.Millisecond},
			{0, 4 * time.Millisecond, 4 * time.Millisecond},
		}
		for w, x := range want {
			if got := [3]time.Duration{r.ComputeBusy[w], r.CommBusy[w], r.ExposedComm[w]}; got != x {
				t.Fatalf("worker %d: compute/comm/exposed %v, want %v", w, got, x)
			}
		}
	}
}
