package sim

import (
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// commInit is a communicator-initialization record: the host walks
// past it and nothing else sees it, the place a host-only op stood
// before host time folded into the next op's HostGap.
func commInit(d time.Duration) trace.Op {
	return after(d, trace.Op{Kind: trace.KindCollective, Name: "ncclCommInitRank",
		Coll: &trace.Collective{Op: "ncclCommInitRank", CommID: 99, Seq: -1, NRanks: 1, Peer: -1}})
}

// A sync that blocks spends its gap before it blocks, and the host
// woken from it resumes past the sync: the gap is spent once.
func TestGapOfABlockingSyncIsSpentOnce(t *testing.T) {
	w := worker(0, 1,
		kernel(0, 10*time.Millisecond),
		after(3*time.Millisecond, trace.Op{Kind: trace.KindStreamSync}),
		after(2*time.Millisecond, kernel(0, time.Millisecond)),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	obs := &recorder{}
	r := mustRun(t, job(t, w), Options{Observer: obs})
	// Block at 3ms until the kernel ends at 10ms, then 2ms of host time
	// and a 1ms kernel.
	if got, want := r.Makespan, 13*time.Millisecond; got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
	var spans [][2]int64
	for _, ev := range obs.events {
		if ev.kind == "hostDelay" {
			spans = append(spans, [2]int64{ev.a, ev.b})
		}
	}
	want := [][2]int64{{0, int64(3 * time.Millisecond)}, {int64(10 * time.Millisecond), int64(12 * time.Millisecond)}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("host segments = %v, want %v", spans, want)
	}
}

// A fail-stop that falls inside a gap freezes the host before the op
// that carries it: nothing after is dispatched, and the survivors
// wedge exactly where they do when the same host time stands on an
// op of its own.
func TestFailStopInsideAGapDispatchesNothingAfter(t *testing.T) {
	survivor := worker(1, 2, coll(1, 42, 0, 2, 1, 5*time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	folded := job(t,
		worker(0, 2, kernel(1, time.Millisecond), after(10*time.Millisecond, coll(1, 42, 0, 2, 0, 5*time.Millisecond)),
			kernel(1, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync}),
		survivor)
	split := job(t,
		worker(0, 2, kernel(1, time.Millisecond), commInit(10*time.Millisecond), coll(1, 42, 0, 2, 0, 5*time.Millisecond),
			kernel(1, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync}),
		survivor)
	inj := &Injection{FailStop: &FailStopAt{Worker: 0, At: int64(4 * time.Millisecond)}}

	var wedged [][]int64
	for name, j := range map[string]*trace.Job{"folded": folded, "split": split} {
		rec := &recorder{}
		rep := checkWedge(t, name, j, Options{Faults: inj, Observer: rec})
		if !rep.Halted {
			t.Fatalf("%s: run not Halted", name)
		}
		for _, ev := range rec.events {
			if ev.w == 0 && ev.kind != "hostDelay" && ev.kind != "opEnd" {
				t.Errorf("%s: the dead worker dispatched past the gap: %+v", name, ev)
			}
		}
		if rep.ComputeBusy[0] != time.Millisecond {
			t.Errorf("%s: dead worker computed %v, want only the 1ms kernel before the gap", name, rep.ComputeBusy[0])
		}
		wedged = append(wedged, rep.Wedged)
	}
	if !reflect.DeepEqual(wedged[0], wedged[1]) || wedged[0][1] != 0 {
		t.Errorf("survivors wedge at %v folded, %v split; want rank 1 at 0 in both", wedged[0], wedged[1])
	}
}

// The host time after the last op counts toward the worker's end.
func TestTailGapReachesHostEnd(t *testing.T) {
	w := worker(0, 1, kernel(0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	w.TailGap = 5 * time.Millisecond
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.HostEnd[0], 6*time.Millisecond; got != want {
		t.Errorf("host end = %v, want %v", got, want)
	}
}

// Two delays folded into one gap attribute idle time exactly as the
// same delays split across a host-only record do, and draw the same
// timeline once the split's abutting host segments are merged.
func TestFoldedDelaysMatchSplitDelays(t *testing.T) {
	mk := func(split bool) *trace.Job {
		ws := make([]*trace.Worker, 2)
		for rank := range ws {
			var ops []trace.Op
			ops = append(ops, kernel(1, 10*time.Millisecond))
			if split {
				ops = append(ops, commInit(4*time.Millisecond),
					after(3*time.Millisecond, coll(2, 0x42, 0, 2, rank, 20*time.Millisecond)))
			} else {
				ops = append(ops, after(7*time.Millisecond, coll(2, 0x42, 0, 2, rank, 20*time.Millisecond)))
			}
			ops = append(ops, after(15*time.Millisecond, kernel(1, 5*time.Millisecond)),
				trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd},
				trace.Op{Kind: trace.KindDeviceSync})
			ws[rank] = worker(rank, 2, ops...)
		}
		return job(t, ws...)
	}
	var stalls [2][]StallBreakdown
	var timelines [2][]chromeEvent
	for i, split := range []bool{false, true} {
		tl := NewTimeline()
		_, stalls[i] = runWithBreakdown(t, mk(split), Options{Observer: tl})
		timelines[i] = mergeHostSpans(tl.events)
	}
	if !reflect.DeepEqual(stalls[0], stalls[1]) {
		t.Errorf("breakdown folded %+v, split %+v", stalls[0], stalls[1])
	}
	if !reflect.DeepEqual(timelines[0], timelines[1]) {
		t.Errorf("timeline folded %+v,\nsplit %+v", timelines[0], timelines[1])
	}
}

// mergeHostSpans joins each host segment to the one before it on its
// worker when the two abut.
func mergeHostSpans(evs []chromeEvent) []chromeEvent {
	var out []chromeEvent
	last := map[int]int{} // worker -> index in out of its last host segment
	for _, ev := range evs {
		if ev.Cat == "host" {
			if i, ok := last[ev.PID]; ok && out[i].TS+out[i].Dur == ev.TS {
				out[i].Dur += ev.Dur
				continue
			}
			last[ev.PID] = len(out)
		}
		out = append(out, ev)
	}
	return out
}
