package sim

import (
	"context"
	"testing"
	"time"

	"maya/internal/trace"
)

func runWithBreakdown(t *testing.T, j *trace.Job, opts Options) (*Report, []StallBreakdown) {
	t.Helper()
	bd := NewBreakdown()
	opts.Observer = Observers(opts.Observer, bd)
	r, err := Run(context.Background(), j, timing(j, opts))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r, bd.Result(r)
}

func TestBreakdownCollectiveStragglerWait(t *testing.T) {
	// Rank 0 reaches the all-reduce at 10ms, rank 1 at 30ms: rank 0's
	// 20ms of straggler time must be attributed to CollectiveWait.
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
	_, stalls := runWithBreakdown(t, job(t, w0, w1), Options{})
	if got, want := stalls[0].CollectiveWait, 20*time.Millisecond; got != want {
		t.Fatalf("rank 0 collective wait = %v, want %v", got, want)
	}
	if got := stalls[1].CollectiveWait; got != 0 {
		t.Fatalf("rank 1 (the straggler) collective wait = %v, want 0", got)
	}
	// Busy: rank 0 = 10ms compute + 20ms comm; span 50ms; no other idle.
	if got, want := stalls[0].Busy, 30*time.Millisecond; got != want {
		t.Fatalf("rank 0 busy = %v, want %v", got, want)
	}
	if got, want := stalls[0].Span(), 50*time.Millisecond; got != want {
		t.Fatalf("rank 0 span = %v, want %v", got, want)
	}
	if stalls[0].EventWait != 0 || stalls[0].HostBound != 0 || stalls[0].Bubble != 0 {
		t.Fatalf("rank 0 misattributed: %+v", stalls[0])
	}
}

func TestBreakdownEventWait(t *testing.T) {
	// Stream 2 waits 10ms for stream 1's event before its own kernel.
	w := worker(0, 1,
		kernel(1, 10*time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 7, EventVer: 1},
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 7, EventVer: 1},
		kernel(2, 5*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	_, stalls := runWithBreakdown(t, job(t, w), Options{})
	// Stream 1 is busy 0-10 while stream 2 waits 0-10: the device is
	// not idle, so nothing is attributable — attribution only carves
	// up device-idle time.
	if got := stalls[0].EventWait; got != 0 {
		t.Fatalf("event wait behind busy compute = %v, want 0 (device not idle)", got)
	}
	if got, want := stalls[0].Busy, 15*time.Millisecond; got != want {
		t.Fatalf("busy = %v, want %v", got, want)
	}

	// Same wait with an idle device: the host records the event late
	// (after a host-side delay), so stream 2's stall is real idle time.
	w2 := worker(0, 1,
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 9, EventVer: 1},
		after(10*time.Millisecond, trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 9, EventVer: 1}),
		kernel(2, 5*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	_, stalls2 := runWithBreakdown(t, job(t, w2), Options{})
	// The 10ms gap overlaps both the event stall and the host delay;
	// event-wait outranks host-bound in the attribution order.
	if got, want := stalls2[0].EventWait, 10*time.Millisecond; got != want {
		t.Fatalf("event wait = %v, want %v (stalls: %+v)", got, want, stalls2[0])
	}
	if got := stalls2[0].HostBound; got != 0 {
		t.Fatalf("host bound = %v, want 0 (claimed by event wait)", got)
	}
}

func TestBreakdownHostBoundAndBubble(t *testing.T) {
	// 10ms kernel, 15ms host gap, 10ms kernel: 5ms of device idle
	// overlaps the host stretch (10..15) — host-bound. Then a worker
	// whose device idles with no cause at all: bubble.
	w := worker(0, 1,
		kernel(0, 10*time.Millisecond),
		after(15*time.Millisecond, kernel(0, 10*time.Millisecond)),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	_, stalls := runWithBreakdown(t, job(t, w), Options{})
	if got, want := stalls[0].HostBound, 5*time.Millisecond; got != want {
		t.Fatalf("host bound = %v, want %v (stalls: %+v)", got, want, stalls[0])
	}
	if got := stalls[0].Bubble; got != 0 {
		t.Fatalf("bubble = %v, want 0", got)
	}
	if got, want := stalls[0].Span(), 25*time.Millisecond; got != want {
		t.Fatalf("span = %v, want %v", got, want)
	}
}

func TestBreakdownPipelineBubbleFromP2P(t *testing.T) {
	// The two-stage toy pipeline of TestPipelineBubbleEmergesFromP2P:
	// stage 1 idles until the first activation arrives. Its wait at
	// the recv is collective-straggler time — the P2P flavor of a
	// pipeline bubble.
	const f = 10 * time.Millisecond
	xfer := time.Millisecond
	send := func(seq int) trace.Op {
		return timed(trace.Op{Kind: trace.KindCollective, Name: "ncclSend", Stream: 0,
			Coll: &trace.Collective{Op: "ncclSend", CommID: 3, Seq: seq, NRanks: 2, Rank: 0, Peer: 1, Bytes: 1024}}, xfer)
	}
	recv := func(seq int) trace.Op {
		return timed(trace.Op{Kind: trace.KindCollective, Name: "ncclRecv", Stream: 0,
			Coll: &trace.Collective{Op: "ncclRecv", CommID: 3, Seq: seq, NRanks: 2, Rank: 1, Peer: 0, Bytes: 1024}}, xfer)
	}
	w0 := worker(0, 2, kernel(0, f), send(0), kernel(0, f), send(1), trace.Op{Kind: trace.KindDeviceSync})
	w1 := worker(1, 2, recv(0), kernel(0, f), recv(1), kernel(0, f), trace.Op{Kind: trace.KindDeviceSync})
	r, stalls := runWithBreakdown(t, job(t, w0, w1), Options{})
	// Stage 1: parked at recv0 during [0,10) — the fill bubble. Both
	// ranks reach recv1 at 21, so it adds no straggler time.
	if got, want := stalls[1].CollectiveWait, 10*time.Millisecond; got != want {
		t.Fatalf("stage-1 fill wait = %v, want %v (stalls: %+v)", got, want, stalls[1])
	}
	if got := stalls[1].Bubble; got != 0 {
		t.Fatalf("stage-1 unattributed bubble = %v, want 0", got)
	}
	// Each worker's attribution spans exactly its own run.
	for w := range stalls {
		if got, want := stalls[w].Span(), r.HostEnd[w]; got != want {
			t.Fatalf("worker %d span = %v, want host end %v", w, got, want)
		}
	}
}

func TestBreakdownThroughPhysicalMode(t *testing.T) {
	// Attribution must hold under jitter + contention too: categories
	// still partition each worker's span.
	r, stalls := runWithBreakdown(t, physicalFixture(t), Options{
		JitterFrac: 0.05, CommContention: 0.5, Seed: 99,
	})
	for w, s := range stalls {
		if got, want := s.Span(), r.HostEnd[w]; got != want {
			t.Fatalf("worker %d span %v != host end %v (%+v)", w, got, want, s)
		}
	}
}
