package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// streamKey names one stream of one worker.
type streamKey struct {
	w int
	s int64
}

// nopObserver is an observer that records nothing: what attaching an
// observer costs, and must not change, with nothing observed.
type nopObserver struct{}

func (nopObserver) OpEnd(int, int64, *trace.Op, int64, int64)                          {}
func (nopObserver) CollectiveFired(int, int64, *trace.Op, trace.CollKey, int64, int64) {}
func (nopObserver) StallEnd(int, int64, StallKind, int64, int64)                       {}
func (nopObserver) HostDelay(int, int64, int64)                                        {}
func (nopObserver) Mark(int, string, int64)                                            {}

// chainFixture builds a randomized deadlock-free multi-worker job: a
// shared program of segments (compute bursts, collectives, event
// record/wait hops across streams, syncs, marks) with per-rank
// durations, exercising every op kind the chain batcher must either
// absorb or break on.
func chainFixture(t *testing.T, seed int64) *trace.Job {
	rng := rand.New(rand.NewSource(seed))
	world := 2 + rng.Intn(3)
	ws := make([]*trace.Worker, world)
	for r := range ws {
		ws[r] = &trace.Worker{Rank: r, World: world, Device: "test"}
	}
	dur := func() time.Duration {
		return time.Duration(17+rng.Intn(997)) * time.Microsecond
	}
	collSeq := 0
	event := int64(0)
	segments := 12 + rng.Intn(12)
	for s := 0; s < segments; s++ {
		switch rng.Intn(6) {
		case 0, 1: // compute burst: a chainable run of timed ops
			n := 1 + rng.Intn(8)
			stream := int64(1 + rng.Intn(2))
			kinds := []trace.Kind{trace.KindKernel, trace.KindMemcpy, trace.KindMemset}
			for i := 0; i < n; i++ {
				kind := kinds[rng.Intn(len(kinds))]
				for _, w := range ws {
					w.Append(trace.Op{Kind: kind, Name: "op", Stream: stream, Dur: dur()})
				}
			}
		case 2: // collective on every rank
			stream := int64(1 + rng.Intn(2))
			d := dur()
			for r, w := range ws {
				w.Append(coll(stream, 42, collSeq, world, r, d))
			}
			collSeq++
		case 3: // event hop: record on stream 1, wait on stream 2
			event++
			for _, w := range ws {
				w.Append(kernel(1, dur()))
				w.Append(trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: event, EventVer: 1})
				w.Append(trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: event, EventVer: 1})
				w.Append(kernel(2, dur()))
			}
		case 4: // host-side pause then device sync
			for _, w := range ws {
				w.Append(hostDelay(dur()))
				w.Append(trace.Op{Kind: trace.KindDeviceSync})
			}
		case 5: // iteration mark
			for _, w := range ws {
				w.Append(trace.Op{Kind: trace.KindMark, Name: "iter"})
			}
		}
	}
	for _, w := range ws {
		w.Append(trace.Op{Kind: trace.KindDeviceSync})
	}
	return job(t, ws...)
}

// TestChainedDispatchMatchesUnchained pins the one dispatch route's
// property: attaching an observer, an empty fault injection or a
// congestion model with no demands changes no report field, across
// randomized traces, with and without jitter. The recorder must hear
// every timed op exactly once, per stream in op order, and the stall
// breakdown's busy time must account for every chained op.
func TestChainedDispatchMatchesUnchained(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		j := chainFixture(t, seed)
		for _, base := range []Options{{}, {JitterFrac: 0.05, Seed: uint64(seed) + 1}} {
			plain := mustRun(t, j, base)
			rec, bd := &recorder{}, NewBreakdown()
			for _, o := range []Options{
				{Observer: nopObserver{}},
				{Observer: rec},
				{Observer: bd},
				{Observer: NewTimeline()},
				{Faults: &Injection{}},
				{Congestion: &CongestionModel{}},
			} {
				o.JitterFrac, o.Seed = base.JitterFrac, base.Seed
				if got := mustRun(t, j, o); !reflect.DeepEqual(got, plain) {
					t.Fatalf("seed %d jitter %v: %+v changed the report:\n got %+v\nwant %+v",
						seed, base.JitterFrac, o, got, plain)
				}
			}
			checkOpCallbacks(t, j, rec.events)
			for w, s := range bd.Result(plain) {
				if want := plain.ComputeBusy[w] + plain.ExposedComm[w]; s.Busy != want {
					t.Fatalf("seed %d jitter %v worker %d: breakdown busy %v, report compute+exposed %v",
						seed, base.JitterFrac, w, s.Busy, want)
				}
			}
		}
	}
}

// checkOpCallbacks asserts the recorder heard one OpEnd per timed op
// of the job, per stream in op order, each op starting no earlier
// than its predecessor on the stream ended.
func checkOpCallbacks(t *testing.T, j *trace.Job, events []recEvent) {
	t.Helper()
	heard := map[streamKey][]recEvent{}
	for _, ev := range events {
		if ev.kind == "opEnd" {
			k := streamKey{ev.w, ev.stream}
			heard[k] = append(heard[k], ev)
		}
	}
	next := map[streamKey]int{}
	lastEnd := map[streamKey]int64{}
	for w, wk := range j.Workers {
		for _, op := range wk.Ops {
			if op.Kind != trace.KindKernel && op.Kind != trace.KindMemcpy && op.Kind != trace.KindMemset {
				continue
			}
			k := streamKey{w, op.Stream}
			i := next[k]
			next[k] = i + 1
			if i >= len(heard[k]) {
				t.Fatalf("worker %d stream %d: op %d never reported", w, op.Stream, op.Seq)
			}
			e := heard[k][i]
			if e.seq != op.Seq {
				t.Fatalf("worker %d stream %d: op %d heard as %+v", w, op.Stream, op.Seq, e)
			}
			if e.a > e.b {
				t.Fatalf("worker %d op %d: OpEnd [%d, %d)", w, op.Seq, e.a, e.b)
			}
			if e.a < lastEnd[k] {
				t.Fatalf("worker %d op %d starts at %d, before its predecessor ended at %d", w, op.Seq, e.a, lastEnd[k])
			}
			lastEnd[k] = e.b
		}
	}
	for k, evs := range heard {
		if len(evs) != next[k] {
			t.Fatalf("worker %d stream %d: %d op callbacks for %d timed ops", k.w, k.s, len(evs), next[k])
		}
	}
}

// TestStragglerNeverSpeedsUp is a metamorphic law: slowing a worker's
// device never finishes the run sooner, for a mild factor and for one
// so large a 10ms kernel's stretched duration overflows int64, over
// the chain fixtures and the two 10ms-kernel jobs.
func TestStragglerNeverSpeedsUp(t *testing.T) {
	jobs := []*trace.Job{stragglerJob(t), chainedJob(t)}
	for seed := int64(0); seed < 25; seed++ {
		jobs = append(jobs, chainFixture(t, seed))
	}
	for i, j := range jobs {
		clean := mustRun(t, j, Options{})
		for _, f := range []float64{1.5, 1e12} {
			one := make([]float64, len(j.Workers))
			one[i%len(one)] = f
			all := make([]float64, len(j.Workers))
			for w := range all {
				all[w] = f
			}
			for _, factors := range [][]float64{one, all} {
				inj := &Injection{Slowdown: []SlowWindow{{Factor: factors}}}
				if got := mustRun(t, j, Options{Faults: inj}); got.Makespan < clean.Makespan {
					t.Fatalf("job %d factors %v: makespan %v below the clean run's %v",
						i, factors, got.Makespan, clean.Makespan)
				}
			}
		}
	}
}
