package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"maya/internal/trace"
)

// build constructs a worker trace from a compact op list.
func worker(rank, world int, ops ...trace.Op) *trace.Worker {
	w := &trace.Worker{Rank: rank, World: world, Device: "test"}
	for _, op := range ops {
		w.Append(op)
	}
	return w
}

func job(t *testing.T, ws ...*trace.Worker) *trace.Job {
	t.Helper()
	j, err := trace.NewJob(ws)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return j
}

func kernel(stream int64, dur time.Duration) trace.Op {
	return trace.Op{Kind: trace.KindKernel, Name: "k", Stream: stream, Dur: dur}
}

func hostDelay(d time.Duration) trace.Op {
	return trace.Op{Kind: trace.KindHostDelay, Dur: d}
}

func coll(stream int64, comm uint64, seq, nranks, rank int, dur time.Duration) trace.Op {
	return trace.Op{
		Kind: trace.KindCollective, Name: "ncclAllReduce", Stream: stream, Dur: dur,
		Coll: &trace.Collective{Op: "ncclAllReduce", CommID: comm, Seq: seq, NRanks: nranks, Rank: rank, Peer: -1},
	}
}

func mustRun(t *testing.T, j *trace.Job, opts Options) *Report {
	t.Helper()
	r, err := Run(context.Background(), j, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestRunPreCancelledContext(t *testing.T) {
	w := worker(0, 1, kernel(0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, job(t, w), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSequentialKernelsSingleStream(t *testing.T) {
	w := worker(0, 1,
		kernel(0, 10*time.Millisecond),
		kernel(0, 20*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Makespan, 30*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
	if got, want := r.ComputeBusy[0], 30*time.Millisecond; got != want {
		t.Fatalf("compute busy = %v, want %v", got, want)
	}
}

func TestHostDelaySerializesDispatch(t *testing.T) {
	// 5ms host gap between two 10ms kernels on one stream: the second
	// kernel is enqueued at 5ms but the stream is busy until 10ms, so
	// total is 20ms, not 25ms (async dispatch hides host time).
	w := worker(0, 1,
		kernel(0, 10*time.Millisecond),
		hostDelay(5*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Makespan, 20*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}

	// If the host gap exceeds the first kernel, the gap is exposed.
	w2 := worker(0, 1,
		kernel(0, 10*time.Millisecond),
		hostDelay(15*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r2 := mustRun(t, job(t, w2), Options{})
	if got, want := r2.Makespan, 25*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestStreamsRunConcurrently(t *testing.T) {
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		kernel(2, 10*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Makespan, 10*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v (streams should overlap)", got, want)
	}
	// Union of overlapping intervals counts once.
	if got, want := r.ComputeBusy[0], 10*time.Millisecond; got != want {
		t.Fatalf("compute busy = %v, want %v", got, want)
	}
}

func TestEventSynchronizationAcrossStreams(t *testing.T) {
	// Stream 1 runs a 10ms kernel then records event (id=7, ver=1).
	// Stream 2 waits on the event before its 5ms kernel. Total 15ms.
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 7, EventVer: 1},
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 7, EventVer: 1},
		kernel(2, 5*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Makespan, 15*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestWaitOnUnrecordedEventIsNoOp(t *testing.T) {
	w := worker(0, 1,
		trace.Op{Kind: trace.KindStreamWait, Stream: 1, Event: 9, EventVer: 0},
		kernel(1, 5*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Makespan, 5*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestEventVersioningBindsToRecordAtWaitTime(t *testing.T) {
	// Event 3 recorded twice. A wait that saw version 1 must not wait
	// for version 2's later completion.
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 3, EventVer: 1},
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 3, EventVer: 1},
		kernel(2, 1*time.Millisecond), // ends at 11ms
		kernel(1, 30*time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 3, EventVer: 2},
		trace.Op{Kind: trace.KindStreamSync, Stream: 2},
		trace.Op{Kind: trace.KindMark, Name: "stream2_done"},
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	var s2done time.Duration
	for _, m := range r.Marks[0] {
		if m.Label == "stream2_done" {
			s2done = m.At
		}
	}
	if got, want := s2done, 11*time.Millisecond; got != want {
		t.Fatalf("stream2 finished at %v, want %v", got, want)
	}
	if got, want := r.Makespan, 40*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestEventSyncBlocksHost(t *testing.T) {
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 5, EventVer: 1},
		trace.Op{Kind: trace.KindEventSync, Event: 5, EventVer: 1},
		trace.Op{Kind: trace.KindMark, Name: "after_sync"},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Marks[0][0].At, 10*time.Millisecond; got != want {
		t.Fatalf("host resumed at %v, want %v", got, want)
	}
}

func TestCollectiveLockstep(t *testing.T) {
	// Two workers: rank 1 arrives at the all-reduce 30ms late, so both
	// finish at 30+20=50ms. Rank 0's wait (the pipeline-bubble effect)
	// emerges from the wait map.
	w0 := worker(0, 2,
		kernel(0, 10*time.Millisecond),
		coll(0, 42, 0, 2, 0, 20*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	w1 := worker(1, 2,
		kernel(0, 30*time.Millisecond),
		coll(0, 42, 0, 2, 1, 20*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w0, w1), Options{})
	for i, end := range r.HostEnd {
		if end != 50*time.Millisecond {
			t.Fatalf("worker %d end = %v, want 50ms", i, end)
		}
	}
	if got, want := r.CommBusy[0], 20*time.Millisecond; got != want {
		t.Fatalf("comm busy = %v, want %v", got, want)
	}
}

func TestComputeCommOverlapOnSeparateStreams(t *testing.T) {
	// Collective on stream 2 overlaps compute on stream 1.
	mk := func(rank int) *trace.Worker {
		return worker(rank, 2,
			coll(2, 7, 0, 2, rank, 20*time.Millisecond),
			kernel(1, 20*time.Millisecond),
			trace.Op{Kind: trace.KindDeviceSync},
		)
	}
	r := mustRun(t, job(t, mk(0), mk(1)), Options{})
	if got, want := r.Makespan, 20*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v (overlap)", got, want)
	}
	if got := r.ExposedComm[0]; got != 0 {
		t.Fatalf("exposed comm = %v, want 0 (fully hidden)", got)
	}
}

func TestSendRecvPairing(t *testing.T) {
	// Rank 0 sends to rank 1 after 10ms of compute; rank 1 recvs then
	// computes 5ms. Xfer takes 3ms: total 18ms.
	w0 := worker(0, 2,
		kernel(0, 10*time.Millisecond),
		trace.Op{Kind: trace.KindCollective, Name: "ncclSend", Stream: 0, Dur: 3 * time.Millisecond,
			Coll: &trace.Collective{Op: "ncclSend", CommID: 9, Seq: 0, NRanks: 2, Rank: 0, Peer: 1, Bytes: 1 << 20}},
		trace.Op{Kind: trace.KindDeviceSync},
	)
	w1 := worker(1, 2,
		trace.Op{Kind: trace.KindCollective, Name: "ncclRecv", Stream: 0, Dur: 3 * time.Millisecond,
			Coll: &trace.Collective{Op: "ncclRecv", CommID: 9, Seq: 0, NRanks: 2, Rank: 1, Peer: 0, Bytes: 1 << 20}},
		kernel(0, 5*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w0, w1), Options{Participants: map[trace.CollKey]int{
		{Comm: 9, P2P: true, Src: 0, Dst: 1, Seq: 0}: 2,
	}})
	if got, want := r.HostEnd[1], 18*time.Millisecond; got != want {
		t.Fatalf("receiver end = %v, want %v", got, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A collective expecting 2 participants that only one worker joins
	// must be reported as a deadlock, not hang.
	w0 := worker(0, 2, coll(0, 1, 0, 2, 0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	w1 := worker(1, 2, kernel(0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	j := job(t, w0, w1)
	_, err := Run(context.Background(), j, Options{Participants: map[trace.CollKey]int{
		{Comm: 1, Seq: 0}: 2,
	}})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestDedupParticipantsOverride(t *testing.T) {
	// With deduplication only one of two DP replicas is simulated; the
	// collective must fire with a single participant.
	w0 := worker(0, 2,
		kernel(0, 10*time.Millisecond),
		coll(0, 5, 0, 2, 0, 20*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w0), Options{})
	if got, want := r.Makespan, 30*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestIterationTimeFromMarks(t *testing.T) {
	var ops []trace.Op
	ops = append(ops, trace.Op{Kind: trace.KindMark, Name: trace.MarkSetupEnd})
	for i := 0; i < 3; i++ {
		ops = append(ops,
			kernel(0, 10*time.Millisecond),
			trace.Op{Kind: trace.KindDeviceSync},
			trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd},
		)
	}
	w := worker(0, 1, ops...)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.IterTime(), 10*time.Millisecond; got != want {
		t.Fatalf("iter time = %v, want %v", got, want)
	}
	if got := len(r.IterEnds()); got != 3 {
		t.Fatalf("iter ends = %d, want 3", got)
	}
}

func TestPhysicalModeJitterIsDeterministic(t *testing.T) {
	mk := func() *trace.Job {
		return job(t, worker(0, 1,
			kernel(0, 10*time.Millisecond),
			kernel(0, 10*time.Millisecond),
			trace.Op{Kind: trace.KindDeviceSync},
		))
	}
	opts := Options{JitterFrac: 0.05, Seed: 1234}
	r1 := mustRun(t, mk(), opts)
	r2 := mustRun(t, mk(), opts)
	if r1.Makespan != r2.Makespan {
		t.Fatalf("jitter not deterministic: %v vs %v", r1.Makespan, r2.Makespan)
	}
	if r1.Makespan == 20*time.Millisecond {
		t.Fatalf("jitter had no effect: %v", r1.Makespan)
	}
	r3 := mustRun(t, mk(), Options{JitterFrac: 0.05, Seed: 99})
	if r3.Makespan == r1.Makespan {
		t.Fatalf("different seeds produced identical jitter")
	}
}

func TestContentionStretchesOverlappedCompute(t *testing.T) {
	mk := func(rank int) *trace.Worker {
		return worker(rank, 2,
			coll(2, 7, 0, 2, rank, 20*time.Millisecond),
			kernel(1, 10*time.Millisecond),
			trace.Op{Kind: trace.KindDeviceSync},
		)
	}
	r := mustRun(t, job(t, mk(0), mk(1)), Options{CommContention: 0.5})
	// Kernel starts while the collective is in flight: 10ms * 1.5.
	if got, want := r.ComputeBusy[0], 15*time.Millisecond; got != want {
		t.Fatalf("compute busy = %v, want %v", got, want)
	}
}

func TestStreamSyncBlocksOnlyThatStream(t *testing.T) {
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		kernel(2, 50*time.Millisecond),
		trace.Op{Kind: trace.KindStreamSync, Stream: 1},
		trace.Op{Kind: trace.KindMark, Name: "s1_done"},
		trace.Op{Kind: trace.KindDeviceSync},
	)
	r := mustRun(t, job(t, w), Options{})
	if got, want := r.Marks[0][0].At, 10*time.Millisecond; got != want {
		t.Fatalf("stream sync returned at %v, want %v", got, want)
	}
	if got, want := r.Makespan, 50*time.Millisecond; got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
}

func TestPipelineBubbleEmergesFromP2P(t *testing.T) {
	// Two pipeline stages, 2 microbatches, no overlap: stage 1 idles
	// until the first activation arrives. Forward-only toy pipeline.
	const f = 10 * time.Millisecond
	xfer := time.Millisecond
	send := func(seq int) trace.Op {
		return trace.Op{Kind: trace.KindCollective, Name: "ncclSend", Stream: 0, Dur: xfer,
			Coll: &trace.Collective{Op: "ncclSend", CommID: 3, Seq: seq, NRanks: 2, Rank: 0, Peer: 1, Bytes: 1024}}
	}
	recv := func(seq int) trace.Op {
		return trace.Op{Kind: trace.KindCollective, Name: "ncclRecv", Stream: 0, Dur: xfer,
			Coll: &trace.Collective{Op: "ncclRecv", CommID: 3, Seq: seq, NRanks: 2, Rank: 1, Peer: 0, Bytes: 1024}}
	}
	w0 := worker(0, 2, kernel(0, f), send(0), kernel(0, f), send(1), trace.Op{Kind: trace.KindDeviceSync})
	w1 := worker(1, 2, recv(0), kernel(0, f), recv(1), kernel(0, f), trace.Op{Kind: trace.KindDeviceSync})
	r := mustRun(t, job(t, w0, w1), Options{})
	// Stage 1 finishes mb0 at 10+1+10=21ms, recv mb1 ready at 21ms
	// (sent at 21ms... rank0: f ends 10, send 10-11, f ends 21, send 21-22).
	// Stage 1: recv0 done 11, k ends 21, recv1 at max(21,22)=22, k ends 32.
	if got, want := r.HostEnd[1], 32*time.Millisecond; got != want {
		t.Fatalf("stage-1 end = %v, want %v", got, want)
	}
}

func TestDeadlockErrorNamesWorkerStreamAndKey(t *testing.T) {
	// A mismatched collective: the wait map expects 2 participants but
	// only worker 0 ever joins. The error must name the stalled
	// worker, its stream, and the blocking collective key with join
	// counts — and be deterministic across runs.
	mk := func() *trace.Job {
		w0 := worker(0, 2, coll(3, 0x2a, 7, 2, 0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
		w1 := worker(1, 2, kernel(0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
		return job(t, w0, w1)
	}
	opts := Options{Participants: map[trace.CollKey]int{{Comm: 0x2a, Seq: 7}: 2}}
	_, err := Run(context.Background(), mk(), opts)
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	msg := err.Error()
	for _, want := range []string{
		"sim: deadlock",
		"worker 0",
		"stream 3",
		"ncclAllReduce",
		"comm=0x2a",
		"seq=7",
		"(1/2 joined)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error missing %q:\n%s", want, msg)
		}
	}
	_, err2 := Run(context.Background(), mk(), opts)
	if err2 == nil || err2.Error() != msg {
		t.Errorf("deadlock error not deterministic:\n%s\nvs\n%s", msg, err2)
	}
}

func TestDeadlockErrorNamesEventKey(t *testing.T) {
	// A stream wait on an event version that is never recorded.
	w := worker(0, 1,
		trace.Op{Kind: trace.KindStreamWait, Stream: 4, Event: 9, EventVer: 3},
		kernel(4, time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	_, err := Run(context.Background(), job(t, w), Options{})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	msg := err.Error()
	for _, want := range []string{"worker 0", "stream 4", "event 9 v3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error missing %q:\n%s", want, msg)
		}
	}
}

// physicalFixture is a job exercising every engine mechanism: multi
// stream, event sync, collectives, stream/device sync, marks.
func physicalFixture(t *testing.T) *trace.Job {
	mk := func(rank int) *trace.Worker {
		return worker(rank, 2,
			kernel(1, 10*time.Millisecond),
			trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 7, EventVer: 1},
			trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 7, EventVer: 1},
			hostDelay(time.Millisecond),
			coll(2, 42, 0, 2, rank, 20*time.Millisecond),
			kernel(1, 5*time.Millisecond),
			trace.Op{Kind: trace.KindStreamSync, Stream: 2},
			trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd},
			trace.Op{Kind: trace.KindDeviceSync},
		)
	}
	return job(t, mk(0), mk(1))
}

func reportsEqual(a, b *Report) bool {
	if a.Makespan != b.Makespan || len(a.HostEnd) != len(b.HostEnd) {
		return false
	}
	for i := range a.HostEnd {
		if a.HostEnd[i] != b.HostEnd[i] || a.ComputeBusy[i] != b.ComputeBusy[i] ||
			a.CommBusy[i] != b.CommBusy[i] || a.ExposedComm[i] != b.ExposedComm[i] {
			return false
		}
		if len(a.Marks[i]) != len(b.Marks[i]) {
			return false
		}
		for j := range a.Marks[i] {
			if a.Marks[i][j] != b.Marks[i][j] {
				return false
			}
		}
	}
	return true
}

func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	// One engine Reset across different jobs and physical-mode options
	// must reproduce fresh-engine results exactly.
	opts := Options{JitterFrac: 0.05, CommContention: 0.5, Seed: 1234}
	want1 := mustRun(t, physicalFixture(t), opts)
	want2 := mustRun(t, physicalFixture(t), Options{})

	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.Reset(physicalFixture(t), opts)
		got, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("reused engine run %d: %v", i, err)
		}
		if !reportsEqual(got, want1) {
			t.Fatalf("reused engine diverged on run %d:\n got %+v\nwant %+v", i, got, want1)
		}
		e.Reset(physicalFixture(t), Options{})
		got2, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reportsEqual(got2, want2) {
			t.Fatalf("reused engine diverged on alternate options, run %d", i)
		}
	}
}

func TestRunPooledMatchesRun(t *testing.T) {
	opts := Options{JitterFrac: 0.02, CommContention: 0.3, Seed: 7}
	want := mustRun(t, physicalFixture(t), opts)
	for i := 0; i < 4; i++ {
		got, err := RunPooled(context.Background(), physicalFixture(t), opts)
		if err != nil {
			t.Fatalf("RunPooled: %v", err)
		}
		if !reportsEqual(got, want) {
			t.Fatalf("RunPooled diverged from Run on iteration %d", i)
		}
	}
}

func TestEngineRunLifecycleErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("Run before Reset should error")
	}
	e.Reset(physicalFixture(t), Options{})
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run without Reset should error")
	}
}

func TestReportDoesNotAliasEngineStorage(t *testing.T) {
	// A report taken from an engine must survive the engine being
	// reset and rerun with a different job (the pooled-reuse hazard:
	// Marks used to alias e.marks).
	e := NewEngine()
	e.Reset(physicalFixture(t), Options{})
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	marks := append([]MarkAt(nil), rep.Marks[0]...)
	hostEnd := append([]time.Duration(nil), rep.HostEnd...)

	w := worker(0, 1,
		trace.Op{Kind: trace.KindMark, Name: "other_mark"},
		kernel(0, time.Millisecond),
		trace.Op{Kind: trace.KindMark, Name: "another"},
		trace.Op{Kind: trace.KindDeviceSync},
	)
	e.Reset(job(t, w), Options{})
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := range marks {
		if rep.Marks[0][i] != marks[i] {
			t.Fatalf("report marks mutated by engine reuse: %v vs %v", rep.Marks[0], marks)
		}
	}
	for i := range hostEnd {
		if rep.HostEnd[i] != hostEnd[i] {
			t.Fatalf("report host ends mutated by engine reuse")
		}
	}
}

// countingObserver tallies every callback.
type countingObserver struct {
	opEnds, colls, stallEnds, hostDelays, marks int
}

func (c *countingObserver) OpEnd(int, int64, *trace.Op, int64, int64) { c.opEnds++ }
func (c *countingObserver) CollectiveFired(int, int64, *trace.Op, trace.CollKey, int64, int64) {
	c.colls++
}
func (c *countingObserver) StallEnd(int, int64, StallKind, int64, int64) { c.stallEnds++ }
func (c *countingObserver) HostDelay(int, int64, int64)                  { c.hostDelays++ }
func (c *countingObserver) Mark(int, string, int64)                      { c.marks++ }

func TestObserverSeesEveryEvent(t *testing.T) {
	obs := &countingObserver{}
	j := physicalFixture(t)
	withObs := mustRun(t, j, Options{Observer: obs})
	plain := mustRun(t, physicalFixture(t), Options{})
	if !reportsEqual(withObs, plain) {
		t.Fatal("attaching an observer changed simulation results")
	}
	// Per worker: 2 timed kernels, 1 collective, 1 event-wait stall
	// (stream 2 waits for event 7), 1 collective stall, 1 host delay,
	// 1 mark.
	if obs.opEnds != 4 {
		t.Errorf("op callbacks = %d, want 4", obs.opEnds)
	}
	if obs.colls != 2 {
		t.Errorf("collective callbacks = %d, want 2 (one per participant)", obs.colls)
	}
	if obs.stallEnds != 4 {
		t.Errorf("stall callbacks = %d, want 4", obs.stallEnds)
	}
	if obs.hostDelays != 2 {
		t.Errorf("host delay callbacks = %d, want 2", obs.hostDelays)
	}
	if obs.marks != 2 {
		t.Errorf("mark callbacks = %d, want 2", obs.marks)
	}
}

func TestObserversComposition(t *testing.T) {
	if Observers() != nil || Observers(nil, nil) != nil {
		t.Fatal("Observers of nothing should be nil (the engine's fast path)")
	}
	a := &countingObserver{}
	if got := Observers(nil, a); got != Observer(a) {
		t.Fatal("single live observer should be returned unwrapped")
	}
	b := &countingObserver{}
	multi := Observers(a, nil, b)
	mustRun(t, physicalFixture(t), Options{Observer: multi})
	if a.opEnds == 0 || a.opEnds != b.opEnds || a.marks != b.marks {
		t.Fatalf("fan-out diverged: a=%+v b=%+v", a, b)
	}
}
