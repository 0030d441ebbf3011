package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// stragglerJob: two workers, each [10ms kernel, allreduce 1ms, 10ms
// kernel, devsync]. Fault-free makespan: 10 + 1 + 10 = 21ms.
func stragglerJob(t *testing.T) *trace.Job {
	t.Helper()
	mk := func(rank int) *trace.Worker {
		return worker(rank, 2,
			kernel(0, 10*time.Millisecond),
			coll(0, 0xc0, 0, 2, rank, time.Millisecond),
			kernel(0, 10*time.Millisecond),
			trace.Op{Kind: trace.KindDeviceSync},
		)
	}
	return job(t, mk(0), mk(1))
}

func TestStragglerSlowsCollectivePartners(t *testing.T) {
	j := stragglerJob(t)
	base := mustRun(t, j, Options{})
	if got, want := base.Makespan, 21*time.Millisecond; got != want {
		t.Fatalf("baseline makespan = %v, want %v", got, want)
	}

	// Worker 1 runs 2x slow: its first kernel takes 20ms, the
	// allreduce fires at 20ms, and both workers finish at 20+1+<post>
	// where the post kernel is also stretched on worker 1 (40ms) but
	// not on worker 0 (10ms): makespan = 20 + 1 + 20 = 41ms.
	inj := &Injection{Slowdown: []SlowWindow{{Factor: []float64{0, 2}}}}
	r := mustRun(t, j, Options{Faults: inj})
	if got, want := r.Makespan, 41*time.Millisecond; got != want {
		t.Fatalf("straggler makespan = %v, want %v", got, want)
	}
	// Worker 0 finishes its post-collective kernel at 21+10 = 31ms.
	if got, want := r.HostEnd[0], 31*time.Millisecond; got != want {
		t.Fatalf("worker 0 end = %v, want %v", got, want)
	}
	// The straggler's delay surfaces as exposed communication (stall
	// waiting at the allreduce) on the fast worker, not as compute.
	if got, want := r.ComputeBusy[0], 20*time.Millisecond; got != want {
		t.Fatalf("worker 0 compute = %v, want %v", got, want)
	}
}

func TestStragglerWindowBounds(t *testing.T) {
	j := stragglerJob(t)

	// Window covering only the first kernel (start t=0): the second
	// kernel starts at 21ms, outside [0, 5ms), so only the first
	// stretches. Makespan = 20 + 1 + 10 = 31ms.
	inj := &Injection{Slowdown: []SlowWindow{
		{Factor: []float64{0, 2}, From: 0, Until: int64(5 * time.Millisecond)},
	}}
	r := mustRun(t, j, Options{Faults: inj})
	if got, want := r.Makespan, 31*time.Millisecond; got != want {
		t.Fatalf("windowed makespan = %v, want %v", got, want)
	}

	// Window opening after both kernels started leaves the run clean.
	late := &Injection{Slowdown: []SlowWindow{
		{Factor: []float64{2, 2}, From: int64(time.Hour)},
	}}
	r2 := mustRun(t, j, Options{Faults: late})
	if got, want := r2.Makespan, 21*time.Millisecond; got != want {
		t.Fatalf("late-window makespan = %v, want %v", got, want)
	}

	// Factors <= 0 and == 1 are identity; short Factor slices leave
	// out-of-range workers untouched.
	id := &Injection{Slowdown: []SlowWindow{
		{Factor: []float64{1}},
		{Factor: []float64{0, -3}},
	}}
	r3 := mustRun(t, j, Options{Faults: id})
	if got, want := r3.Makespan, 21*time.Millisecond; got != want {
		t.Fatalf("identity makespan = %v, want %v", got, want)
	}

	// Overlapping windows compose multiplicatively: 1.5 * 2 = 3x on
	// the first kernel of worker 1 → 30 + 1 + 10 = 41ms.
	combo := &Injection{Slowdown: []SlowWindow{
		{Factor: []float64{0, 1.5}, Until: int64(5 * time.Millisecond)},
		{Factor: []float64{0, 2}, Until: int64(5 * time.Millisecond)},
	}}
	r4 := mustRun(t, j, Options{Faults: combo})
	if got, want := r4.Makespan, 41*time.Millisecond; got != want {
		t.Fatalf("stacked makespan = %v, want %v", got, want)
	}
}

func TestFailStopWedgesSurvivors(t *testing.T) {
	j := stragglerJob(t)

	// Worker 1 dies at 5ms, mid-first-kernel. The in-flight kernel
	// completes at 10ms (work already on the device), but worker 1
	// never joins the allreduce, so worker 0 wedges there forever.
	inj := &Injection{FailStop: &FailStopAt{Worker: 1, At: int64(5 * time.Millisecond)}}
	r := mustRun(t, j, Options{Faults: inj})
	if !r.Halted {
		t.Fatal("report not marked Halted")
	}
	// Worker 0's frontier: kernel done at 10ms, stalled at allreduce.
	if got, want := r.HostEnd[0], 10*time.Millisecond; got != want {
		t.Fatalf("survivor frontier = %v, want %v", got, want)
	}
	// Worker 1's frontier: its in-flight kernel completed.
	if got, want := r.HostEnd[1], 10*time.Millisecond; got != want {
		t.Fatalf("dead worker frontier = %v, want %v", got, want)
	}

	// Death at t=0 freezes worker 1 before anything runs.
	inj0 := &Injection{FailStop: &FailStopAt{Worker: 1, At: 0}}
	r0 := mustRun(t, j, Options{Faults: inj0})
	if !r0.Halted {
		t.Fatal("t=0 report not marked Halted")
	}
	if got := r0.HostEnd[1]; got != 0 {
		t.Fatalf("dead-at-0 worker frontier = %v, want 0", got)
	}

	// Death after the trace completes changes nothing: no wedge.
	injLate := &Injection{FailStop: &FailStopAt{Worker: 1, At: int64(time.Hour)}}
	rl := mustRun(t, j, Options{Faults: injLate})
	if rl.Halted {
		t.Fatal("post-trace death marked Halted")
	}
	if got, want := rl.Makespan, 21*time.Millisecond; got != want {
		t.Fatalf("post-trace-death makespan = %v, want %v", got, want)
	}
}

func TestFailStopAfterCollectiveJoinCompletes(t *testing.T) {
	// Worker 1 dies at 10.5ms — after joining the allreduce (at 10ms)
	// but before it completes (11ms). Its join was already on the
	// wire, so the collective finishes for both; worker 1 then starts
	// nothing new, and worker 0 runs to completion. No survivor
	// wedges: not Halted is wrong — Halted reflects undone hosts, and
	// worker 1's host froze. The run must still report Halted with
	// worker 0 fully done.
	j := stragglerJob(t)
	inj := &Injection{FailStop: &FailStopAt{Worker: 1, At: int64(10500 * time.Microsecond)}}
	r := mustRun(t, j, Options{Faults: inj})
	if !r.Halted {
		t.Fatal("report not marked Halted")
	}
	if got, want := r.HostEnd[0], 21*time.Millisecond; got != want {
		t.Fatalf("survivor end = %v, want %v", got, want)
	}
	// Worker 1's frontier is the collective completion it had joined.
	if got, want := r.HostEnd[1], 11*time.Millisecond; got != want {
		t.Fatalf("dead worker frontier = %v, want %v", got, want)
	}
}

// chainedJob is one worker enqueuing four 10ms kernels at t=0. The
// first starts alone; the other three are queued behind it by the
// time it ends, so they run as one chain over [10ms, 40ms).
func chainedJob(t *testing.T) *trace.Job {
	t.Helper()
	k := kernel(0, 10*time.Millisecond)
	return job(t, worker(0, 1, k, k, k, k, trace.Op{Kind: trace.KindDeviceSync}))
}

// runChained runs j with inj, with and without a recorder attached,
// checks both reports agree, and returns the report and the [start,
// end) of every op the recorder heard end, in order.
func runChained(t *testing.T, j *trace.Job, inj *Injection) (*Report, [][2]time.Duration) {
	t.Helper()
	rec := &recorder{}
	r := mustRun(t, j, Options{Faults: inj, Observer: rec})
	if plain := mustRun(t, j, Options{Faults: inj}); !reflect.DeepEqual(plain, r) {
		t.Fatalf("observer changed the report:\n got %+v\nwant %+v", r, plain)
	}
	var ops [][2]time.Duration
	for _, ev := range rec.events {
		if ev.kind == "opEnd" {
			ops = append(ops, [2]time.Duration{time.Duration(ev.a), time.Duration(ev.b)})
		}
	}
	return r, ops
}

func ivs(ms ...int) [][2]time.Duration {
	out := make([][2]time.Duration, 0, len(ms)/2)
	for i := 0; i+1 < len(ms); i += 2 {
		out = append(out, [2]time.Duration{time.Duration(ms[i]) * time.Millisecond, time.Duration(ms[i+1]) * time.Millisecond})
	}
	return out
}

// TestFailStopInsideChain kills the worker while its chain of kernels
// is queued: an op whose start is at or after the death never starts,
// however the ops were batched.
func TestFailStopInsideChain(t *testing.T) {
	j := chainedJob(t)
	for _, tc := range []struct {
		at     time.Duration
		halted bool
		end    time.Duration
		ops    [][2]time.Duration
	}{
		{25 * time.Millisecond, true, 30 * time.Millisecond, ivs(0, 10, 10, 20, 20, 30)},
		{30 * time.Millisecond, true, 30 * time.Millisecond, ivs(0, 10, 10, 20, 20, 30)},
		{10 * time.Millisecond, true, 10 * time.Millisecond, ivs(0, 10)},
		{30*time.Millisecond + 1, false, 40 * time.Millisecond, ivs(0, 10, 10, 20, 20, 30, 30, 40)},
	} {
		r, ops := runChained(t, j, &Injection{FailStop: &FailStopAt{Worker: 0, At: int64(tc.at)}})
		if r.Halted != tc.halted || r.HostEnd[0] != tc.end || r.ComputeBusy[0] != tc.end {
			t.Fatalf("death at %v: halted %v, host end %v, compute %v; want %v, %v, %v",
				tc.at, r.Halted, r.HostEnd[0], r.ComputeBusy[0], tc.halted, tc.end, tc.end)
		}
		if !reflect.DeepEqual(ops, tc.ops) {
			t.Fatalf("death at %v: ops ran %v, want %v", tc.at, ops, tc.ops)
		}
	}
}

// TestStragglerWindowInsideChain opens and closes a 2x slowdown window
// inside the chain: each op is stretched by whether its own start lies
// in the window.
func TestStragglerWindowInsideChain(t *testing.T) {
	j := chainedJob(t)
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	for _, tc := range []struct {
		from, until int64
		ops         [][2]time.Duration
	}{
		// Only the third op starts in [15, 35).
		{ms(15), ms(35), ivs(0, 10, 10, 20, 20, 40, 40, 50)},
		// The window opens exactly at the third op's start.
		{ms(20), 0, ivs(0, 10, 10, 20, 20, 40, 40, 60)},
		// The window closes between the second op's start and the third's.
		{0, ms(25), ivs(0, 20, 20, 40, 40, 50, 50, 60)},
	} {
		inj := &Injection{Slowdown: []SlowWindow{{Factor: []float64{2}, From: tc.from, Until: tc.until}}}
		r, ops := runChained(t, j, inj)
		if !reflect.DeepEqual(ops, tc.ops) {
			t.Fatalf("window [%v, %v): ops ran %v, want %v", time.Duration(tc.from), time.Duration(tc.until), ops, tc.ops)
		}
		if end := tc.ops[len(tc.ops)-1][1]; r.Makespan != end || r.ComputeBusy[0] != end {
			t.Fatalf("window [%v, %v): makespan %v, compute %v, want %v", time.Duration(tc.from), time.Duration(tc.until), r.Makespan, r.ComputeBusy[0], end)
		}
	}
}

func TestFaultsDeterminismPooledVsFresh(t *testing.T) {
	j := stragglerJob(t)
	inj := &Injection{
		Slowdown: []SlowWindow{{Factor: []float64{1.3, 2.7}}},
		FailStop: &FailStopAt{Worker: 0, At: int64(15 * time.Millisecond)},
	}
	opts := Options{Faults: inj}
	want := mustRun(t, j, opts)
	for range 3 {
		got := mustRun(t, j, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun diverged:\n got %+v\nwant %+v", got, want)
		}
		pooled, err := RunPooled(context.Background(), j, timing(j, opts))
		if err != nil {
			t.Fatalf("RunPooled: %v", err)
		}
		if !reflect.DeepEqual(pooled, want) {
			t.Fatalf("pooled diverged:\n got %+v\nwant %+v", pooled, want)
		}
	}
}

func TestFaultsConcurrentRunsRace(t *testing.T) {
	j := stragglerJob(t)
	inj := &Injection{Slowdown: []SlowWindow{{Factor: []float64{0, 2}}}}
	opts := Options{Faults: inj}
	want := mustRun(t, j, opts)
	const workers = 8
	errs := make(chan error, workers)
	reps := make(chan *Report, workers)
	for range workers {
		go func() {
			r, err := RunPooled(context.Background(), j, timing(j, opts))
			errs <- err
			reps <- r
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent RunPooled: %v", err)
		}
		if got := <-reps; !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent run diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestNilInjectionMatchesFaultFree(t *testing.T) {
	j := stragglerJob(t)
	clean := mustRun(t, j, Options{})
	withNil := mustRun(t, j, Options{Faults: nil})
	if !reflect.DeepEqual(clean, withNil) {
		t.Fatalf("nil injection diverged from fault-free run")
	}
	// An empty (non-nil) injection must produce the same timings.
	empty := mustRun(t, j, Options{Faults: &Injection{}})
	if !reflect.DeepEqual(clean, empty) {
		t.Fatalf("empty injection diverged:\n got %+v\nwant %+v", empty, clean)
	}
}
