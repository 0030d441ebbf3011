package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// runWedge runs j on a fresh engine and returns the report and the
// reference wedge: per worker, the earliest unresolved collective
// stall begin, or -1. The reference reads the collective wait map the
// run left behind — every group still in it never fired, and each of
// its arrivals is a stream that stalled there and stayed stalled — so
// it shares no state with the stream flags Report.Wedged is built
// from. A pooled engine would scrub the map; a fresh one keeps it.
func runWedge(t *testing.T, j *trace.Job, opts Options) (*Report, []int64) {
	t.Helper()
	e := NewEngine()
	e.Reset(j, timing(j, opts))
	rep, err := e.runBusy(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := make([]int64, len(j.Workers))
	for w := range ref {
		ref[w] = -1
	}
	for _, g := range e.colls {
		if g == nil {
			continue
		}
		for k, st := range g.arrived {
			if at := g.arriveAt[k]; ref[st.w] < 0 || at < ref[st.w] {
				ref[st.w] = at
			}
		}
	}
	return rep, ref
}

// checkWedge asserts a fail-stop run's Wedged: equal to the reference
// on a Halted run, nil otherwise.
func checkWedge(t *testing.T, name string, j *trace.Job, opts Options) *Report {
	t.Helper()
	rep, ref := runWedge(t, j, opts)
	if !rep.Halted {
		if rep.Wedged != nil {
			t.Fatalf("%s: run not Halted, but Wedged = %v", name, rep.Wedged)
		}
		return rep
	}
	if !reflect.DeepEqual(rep.Wedged, ref) {
		t.Fatalf("%s: Wedged = %v, reference %v", name, rep.Wedged, ref)
	}
	return rep
}

// deaths returns fail-stop injections for every worker of j at
// instants spread over its clean makespan, on top of slow (nil for
// none).
func deaths(t *testing.T, j *trace.Job, opts Options, slow []SlowWindow) []*Injection {
	t.Helper()
	span := int64(mustRun(t, j, opts).Makespan)
	var out []*Injection
	for w := range j.Workers {
		for _, frac := range []int64{0, 1, 3, 5, 7, 9} {
			at := span * frac / 10
			out = append(out, &Injection{Slowdown: slow, FailStop: &FailStopAt{Worker: w, At: at}})
		}
	}
	return out
}

// TestWedgedMatchesReference pins Report.Wedged to the reference on
// fail-stop runs: deaths before and inside a dispatch chain, after a
// collective join, under a congestion model and under a straggler
// window, across the randomized chain fixtures.
func TestWedgedMatchesReference(t *testing.T) {
	ms := func(n float64) int64 { return int64(n * float64(time.Millisecond)) }

	// The chain of TestFailStopInsideChain: one worker, no
	// collectives, so a death before or inside the chain halts the run
	// with nothing wedged.
	for _, at := range []int64{0, ms(10), ms(25), ms(30)} {
		name := "chain death at " + time.Duration(at).String()
		r := checkWedge(t, name, chainedJob(t), Options{Faults: &Injection{FailStop: &FailStopAt{Worker: 0, At: at}}})
		if !r.Halted || !reflect.DeepEqual(r.Wedged, []int64{-1}) {
			t.Fatalf("%s: halted %v, Wedged %v; want true, [-1]", name, r.Halted, r.Wedged)
		}
	}

	// stragglerJob: worker 1 dies mid-kernel (worker 0 wedges at the
	// allreduce it reaches at 10ms), after joining it (nobody wedges),
	// and under a 2x window on worker 0 (which then reaches it at 20ms).
	slow := []SlowWindow{{Factor: []float64{2}, Until: ms(5)}}
	for _, tc := range []struct {
		name string
		inj  *Injection
		want []int64
	}{
		{"death mid-kernel", &Injection{FailStop: &FailStopAt{Worker: 1, At: ms(5)}}, []int64{ms(10), -1}},
		{"death after the join", &Injection{FailStop: &FailStopAt{Worker: 1, At: ms(10.5)}}, []int64{-1, -1}},
		{"death under a window", &Injection{Slowdown: slow, FailStop: &FailStopAt{Worker: 1, At: ms(5)}}, []int64{ms(20), -1}},
	} {
		r := checkWedge(t, tc.name, stragglerJob(t), Options{Faults: tc.inj})
		if !r.Halted || !reflect.DeepEqual(r.Wedged, tc.want) {
			t.Fatalf("%s: halted %v, Wedged %v; want true, %v", tc.name, r.Halted, r.Wedged, tc.want)
		}
	}

	// Worker 0's streams 1 and 2 wedge at 1ms and 2ms; its stream 3
	// waits, from t=0, on an event recorded behind stream 1's
	// collective. Wedged is the earliest collective stall, never an
	// event stall.
	rec := trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 7, EventVer: 1}
	wait := trace.Op{Kind: trace.KindStreamWait, Stream: 3, Event: 7, EventVer: 1}
	j := job(t,
		worker(0, 2,
			kernel(1, time.Millisecond), collOn(1, 1, 0, 2, 0, time.Millisecond), rec,
			kernel(2, 2*time.Millisecond), collOn(2, 2, 0, 2, 0, time.Millisecond),
			wait, kernel(3, time.Millisecond)),
		worker(1, 2, collOn(1, 1, 0, 2, 1, time.Millisecond), collOn(2, 2, 0, 2, 1, time.Millisecond)),
	)
	r := checkWedge(t, "two wedged streams", j, Options{Faults: &Injection{FailStop: &FailStopAt{Worker: 1, At: 0}}})
	if !r.Halted || !reflect.DeepEqual(r.Wedged, []int64{ms(1), -1}) {
		t.Fatalf("two wedged streams: halted %v, Wedged %v; want true, [1ms -1]", r.Halted, r.Wedged)
	}

	// The congestion model's flow path.
	cj, cong := congestedFixture(t)
	for _, inj := range deaths(t, cj, Options{Congestion: cong}, nil) {
		checkWedge(t, fmt.Sprintf("congested death of %+v", *inj.FailStop), cj, Options{Congestion: cong, Faults: inj})
	}

	// Randomized chains, plain, jittered, with a straggler window and
	// congested through a demand on every collective.
	for seed := int64(0); seed < 25; seed++ {
		j := chainFixture(t, seed)
		window := []SlowWindow{{Factor: []float64{1, 3, 1.5}, From: ms(1), Until: ms(4)}}
		for _, base := range []Options{{}, {JitterFrac: 0.05, Seed: uint64(seed) + 1}} {
			for _, slow := range [][]SlowWindow{nil, window} {
				for _, inj := range deaths(t, j, base, slow) {
					o := base
					o.Faults = inj
					checkWedge(t, fmt.Sprintf("seed %d %+v death of %+v", seed, o, *inj.FailStop), j, o)
				}
			}
		}
		cong := &CongestionModel{Widths: []int32{1}, Demands: map[trace.CollKey]CollDemand{}}
		for s := range 24 {
			cong.Demands[key(42, s)] = CollDemand{Links: []int32{0}, Lat: int64(time.Microsecond)}
		}
		for _, inj := range deaths(t, j, Options{Congestion: cong}, nil) {
			checkWedge(t, fmt.Sprintf("seed %d congested death of %+v", seed, *inj.FailStop), j, Options{Congestion: cong, Faults: inj})
		}
	}
}

// TestWedgedOnlyOnHaltedRuns: a clean run, a fail-stop after the
// trace ends and a run truncated while a survivor is already wedged
// all leave Wedged nil.
func TestWedgedOnlyOnHaltedRuns(t *testing.T) {
	// Worker 0 wedges at 1ms on worker 1's collective; worker 2 keeps
	// computing until 100ms.
	j := job(t,
		worker(0, 3, kernel(0, time.Millisecond), coll(0, 1, 0, 2, 0, time.Millisecond)),
		worker(1, 3, coll(0, 1, 0, 2, 1, time.Millisecond)),
		worker(2, 3, kernel(0, 100*time.Millisecond)),
	)
	die := func(at time.Duration) *Injection {
		return &Injection{FailStop: &FailStopAt{Worker: 1, At: int64(at)}}
	}
	for _, tc := range []struct {
		name      string
		opts      Options
		truncated bool
	}{
		{"clean", Options{}, false},
		{"death after the trace", Options{Faults: die(time.Hour)}, false},
		{"truncated", Options{Faults: die(0), TimeLimit: 10 * time.Millisecond}, true},
	} {
		r := mustRun(t, j, tc.opts)
		if r.Halted || r.Truncated != tc.truncated || r.Wedged != nil {
			t.Fatalf("%s: halted %v, truncated %v, Wedged %v; want false, %v, nil",
				tc.name, r.Halted, r.Truncated, r.Wedged, tc.truncated)
		}
	}
	if r := mustRun(t, j, Options{Faults: die(0)}); !r.Halted || !reflect.DeepEqual(r.Wedged, []int64{int64(time.Millisecond), -1, -1}) {
		t.Fatalf("untruncated: halted %v, Wedged %v; want true, [1ms -1 -1]", r.Halted, r.Wedged)
	}
}
