package sim

import (
	"context"
	"sync"
	"testing"
	"time"

	"maya/internal/trace"
)

// pairColl builds a named-communicator collective op for pair tests.
func collOn(stream int64, comm uint64, seq, nranks, rank int, dur time.Duration) trace.Op {
	return coll(stream, comm, seq, nranks, rank, dur)
}

func key(comm uint64, seq int) trace.CollKey {
	return trace.CollKey{Comm: comm, Seq: seq}
}

// Two independent pair collectives firing together on a width-1 link
// each take twice their annotated duration: the link's bandwidth is
// split while both are active.
func TestCongestionSharedLinkSplitsBandwidth(t *testing.T) {
	j := job(t,
		worker(0, 4, collOn(0, 1, 0, 2, 0, time.Millisecond)),
		worker(1, 4, collOn(0, 1, 0, 2, 1, time.Millisecond)),
		worker(2, 4, collOn(0, 2, 0, 2, 0, time.Millisecond)),
		worker(3, 4, collOn(0, 2, 0, 2, 1, time.Millisecond)),
	)
	cong := &CongestionModel{
		Widths: []int32{1},
		Demands: map[trace.CollKey]CollDemand{
			key(1, 0): {Links: []int32{0}},
			key(2, 0): {Links: []int32{0}},
		},
	}
	r := mustRun(t, j, Options{Congestion: cong})
	for w := 0; w < 4; w++ {
		if got := r.CommBusy[w]; got != 2*time.Millisecond {
			t.Fatalf("worker %d comm busy = %v, want 2ms (bandwidth split)", w, got)
		}
	}
	if r.Makespan != 2*time.Millisecond {
		t.Fatalf("makespan = %v, want 2ms", r.Makespan)
	}

	// Double the link width and the same two flows fit at full rate.
	cong.Widths = []int32{2}
	r = mustRun(t, j, Options{Congestion: cong})
	if r.Makespan != time.Millisecond {
		t.Fatalf("width-2 makespan = %v, want 1ms", r.Makespan)
	}

	// Disjoint links: no interference.
	cong.Widths = []int32{1, 1}
	cong.Demands[key(2, 0)] = CollDemand{Links: []int32{1}}
	r = mustRun(t, j, Options{Congestion: cong})
	if r.Makespan != time.Millisecond {
		t.Fatalf("disjoint-links makespan = %v, want 1ms", r.Makespan)
	}
}

// A staggered arrival retunes in-flight flows: the early flow runs
// alone, is halved while sharing, and the survivor speeds back up.
func TestCongestionRetunesOnArrivalAndDeparture(t *testing.T) {
	j := job(t,
		worker(0, 4, collOn(0, 1, 0, 2, 0, 2*time.Millisecond)),
		worker(1, 4, collOn(0, 1, 0, 2, 1, 2*time.Millisecond)),
		worker(2, 4, after(time.Millisecond, collOn(0, 2, 0, 2, 0, 2*time.Millisecond))),
		worker(3, 4, after(time.Millisecond, collOn(0, 2, 0, 2, 1, 2*time.Millisecond))),
	)
	cong := &CongestionModel{
		Widths: []int32{1},
		Demands: map[trace.CollKey]CollDemand{
			key(1, 0): {Links: []int32{0}},
			key(2, 0): {Links: []int32{0}},
		},
	}
	r := mustRun(t, j, Options{Congestion: cong})
	// Flow A: 1ms alone + 1ms remaining at half rate -> done at 3ms.
	if got := r.CommBusy[0]; got != 3*time.Millisecond {
		t.Fatalf("early flow busy = %v, want 3ms", got)
	}
	// Flow B: starts at 1ms, half rate until 3ms (1ms of work done),
	// then full rate for the last 1ms -> done at 4ms.
	if got := r.CommBusy[2]; got != 3*time.Millisecond {
		t.Fatalf("late flow busy = %v, want 3ms (1ms..4ms)", got)
	}
	if r.Makespan != 4*time.Millisecond {
		t.Fatalf("makespan = %v, want 4ms", r.Makespan)
	}
}

// Only the bandwidth-bound part of a collective stretches: the
// latency portion of the demand drains in real time regardless of
// link sharing.
func TestCongestionLatencyPortionDoesNotStretch(t *testing.T) {
	j := job(t,
		worker(0, 4, collOn(0, 1, 0, 2, 0, time.Millisecond)),
		worker(1, 4, collOn(0, 1, 0, 2, 1, time.Millisecond)),
		worker(2, 4, collOn(0, 2, 0, 2, 0, 10*time.Millisecond)),
		worker(3, 4, collOn(0, 2, 0, 2, 1, 10*time.Millisecond)),
	)
	cong := &CongestionModel{
		Widths: []int32{1},
		Demands: map[trace.CollKey]CollDemand{
			key(1, 0): {Links: []int32{0}, Lat: int64(400 * time.Microsecond)},
			key(2, 0): {Links: []int32{0}},
		},
	}
	r := mustRun(t, j, Options{Congestion: cong})
	// Flow A: 0.4ms latency + 0.6ms work at half rate = 1.6ms.
	if got := r.CommBusy[0]; got != 1600*time.Microsecond {
		t.Fatalf("latency-heavy flow busy = %v, want 1.6ms", got)
	}
	// Flow B: half rate for 1.6ms (0.8ms done), then full rate for the
	// remaining 9.2ms -> done at 10.8ms.
	if r.Makespan != 10800*time.Microsecond {
		t.Fatalf("makespan = %v, want 10.8ms", r.Makespan)
	}
}

// A collective whose key has no demand replays verbatim even in
// congestion mode, and a run where flows never overlap is identical
// to the uncongested run.
func TestCongestionSoloFlowsMatchUncongested(t *testing.T) {
	mk := func() *trace.Job {
		return job(t,
			worker(0, 2,
				kernel(0, time.Millisecond),
				collOn(0, 7, 0, 2, 0, 2*time.Millisecond),
				kernel(0, 500*time.Microsecond),
				collOn(0, 7, 1, 2, 0, time.Millisecond),
			),
			worker(1, 2,
				collOn(0, 7, 0, 2, 1, 2*time.Millisecond),
				kernel(0, 2*time.Millisecond),
				collOn(0, 7, 1, 2, 1, time.Millisecond),
			),
		)
	}
	base := mustRun(t, mk(), Options{})
	cong := &CongestionModel{
		Widths: []int32{1, 4},
		Demands: map[trace.CollKey]CollDemand{
			key(7, 0): {Links: []int32{0, 1}, Lat: int64(5 * time.Microsecond)},
			// key(7,1) missing: fixed-duration fallback.
		},
	}
	got := mustRun(t, mk(), Options{Congestion: cong})
	if !reportsEqual(base, got) {
		t.Fatalf("solo congested run differs from uncongested:\n%+v\nvs\n%+v", got, base)
	}
}

// congestedFixture is a contention-heavy 4-worker job: pair
// collectives overlapping on a shared uplink, a world collective, and
// interleaved compute.
func congestedFixture(t *testing.T) (*trace.Job, *CongestionModel) {
	t.Helper()
	j := job(t,
		worker(0, 4,
			kernel(0, 200*time.Microsecond),
			collOn(0, 1, 0, 2, 0, time.Millisecond),
			collOn(0, 9, 0, 4, 0, 2*time.Millisecond),
			kernel(0, 100*time.Microsecond),
			collOn(0, 1, 1, 2, 0, 500*time.Microsecond),
		),
		worker(1, 4,
			collOn(0, 1, 0, 2, 1, time.Millisecond),
			collOn(0, 9, 0, 4, 1, 2*time.Millisecond),
			collOn(0, 1, 1, 2, 1, 500*time.Microsecond),
		),
		worker(2, 4,
			kernel(0, 50*time.Microsecond),
			collOn(0, 2, 0, 2, 0, 1500*time.Microsecond),
			collOn(0, 9, 0, 4, 2, 2*time.Millisecond),
			collOn(0, 2, 1, 2, 0, 700*time.Microsecond),
		),
		worker(3, 4,
			collOn(0, 2, 0, 2, 1, 1500*time.Microsecond),
			collOn(0, 9, 0, 4, 3, 2*time.Millisecond),
			kernel(0, 300*time.Microsecond),
			collOn(0, 2, 1, 2, 1, 700*time.Microsecond),
		),
	)
	cong := &CongestionModel{
		Widths: []int32{1, 1, 1},
		Demands: map[trace.CollKey]CollDemand{
			key(1, 0): {Links: []int32{0, 2}, Lat: int64(10 * time.Microsecond)},
			key(1, 1): {Links: []int32{0, 2}, Lat: int64(10 * time.Microsecond)},
			key(2, 0): {Links: []int32{1, 2}, Lat: int64(10 * time.Microsecond)},
			key(2, 1): {Links: []int32{1, 2}, Lat: int64(10 * time.Microsecond)},
			key(9, 0): {Links: []int32{0, 1, 2}, Lat: int64(22 * time.Microsecond)},
		},
	}
	return j, cong
}

// Acceptance criterion: congestion-aware simulation is deterministic —
// bit-identical reports across repeated runs, pooled vs fresh engines
// and concurrent use (run under -race).
func TestCongestionDeterministicAcrossRunsAndPooling(t *testing.T) {
	j, cong := congestedFixture(t)
	opts := Options{Congestion: cong}
	base := mustRun(t, j, opts)
	if base.Makespan <= 0 {
		t.Fatal("fixture produced empty report")
	}
	for i := 0; i < 3; i++ {
		if r := mustRun(t, j, opts); !reportsEqual(base, r) {
			t.Fatalf("fresh run %d differs:\n%+v\nvs\n%+v", i, r, base)
		}
		r, err := RunPooled(context.Background(), j, timing(j, opts))
		if err != nil {
			t.Fatalf("RunPooled: %v", err)
		}
		if !reportsEqual(base, r) {
			t.Fatalf("pooled run %d differs:\n%+v\nvs\n%+v", i, r, base)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := RunPooled(context.Background(), j, timing(j, opts))
			if err != nil {
				errs <- err.Error()
				return
			}
			if !reportsEqual(base, r) {
				errs <- "concurrent pooled run diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Congestion slows the fixture down relative to verbatim replay, and
// the engine recovers cleanly for a following uncongested run.
func TestCongestionStretchesContendedFixture(t *testing.T) {
	j, cong := congestedFixture(t)
	congested, err := RunPooled(context.Background(), j, timing(j, Options{Congestion: cong}))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunPooled(context.Background(), j, timing(j, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if congested.Makespan <= clean.Makespan {
		t.Fatalf("congested makespan %v not above uncongested %v", congested.Makespan, clean.Makespan)
	}
}
