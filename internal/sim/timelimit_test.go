package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// limitFixture is a two-worker trace with a straggler-gated
// collective and trailing compute: structure on both sides of any
// mid-trace horizon.
func limitFixture(t *testing.T) *trace.Job {
	t.Helper()
	w0 := worker(0, 2,
		kernel(0, 10*time.Millisecond),
		coll(0, 1, 0, 2, 0, 5*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	w1 := worker(1, 2,
		kernel(0, 25*time.Millisecond), // straggler delays the collective
		coll(0, 1, 0, 2, 1, 5*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		kernel(0, 10*time.Millisecond),
		trace.Op{Kind: trace.KindDeviceSync},
	)
	return job(t, w0, w1)
}

func TestTimeLimitBeyondMakespanIsNoOp(t *testing.T) {
	j := limitFixture(t)
	full := mustRun(t, j, Options{})
	if full.Truncated {
		t.Fatal("unlimited run reported Truncated")
	}
	limited := mustRun(t, j, Options{TimeLimit: full.Makespan + time.Millisecond})
	if limited.Truncated {
		t.Fatalf("limit %v beyond makespan %v still truncated", full.Makespan+time.Millisecond, full.Makespan)
	}
	if !reflect.DeepEqual(full, limited) {
		t.Fatalf("beyond-makespan limit changed the report:\nfull    %+v\nlimited %+v", full, limited)
	}
	// A limit equal to the makespan also completes: truncation
	// requires an event strictly beyond the horizon.
	atEdge := mustRun(t, j, Options{TimeLimit: full.Makespan})
	if atEdge.Truncated {
		t.Fatal("limit == makespan truncated")
	}
}

func TestTimeLimitTruncates(t *testing.T) {
	j := limitFixture(t)
	full := mustRun(t, j, Options{})
	limit := 20 * time.Millisecond // inside worker 1's straggler kernel
	r := mustRun(t, j, Options{TimeLimit: limit})
	if !r.Truncated {
		t.Fatalf("limit %v (makespan %v) did not truncate", limit, full.Makespan)
	}
	if r.Makespan >= full.Makespan {
		t.Fatalf("truncated makespan %v not below full %v", r.Makespan, full.Makespan)
	}
	// The report is a prefix: no busy time beyond what the full run
	// accumulated.
	for i := range r.ComputeBusy {
		if r.ComputeBusy[i] > full.ComputeBusy[i] {
			t.Fatalf("worker %d truncated compute busy %v exceeds full %v", i, r.ComputeBusy[i], full.ComputeBusy[i])
		}
	}
}

// TestTimeLimitDeterministic asserts the truncation cut is exactly
// reproducible: repeated runs, fresh and pooled engines, all produce
// bit-identical reports at every horizon.
func TestTimeLimitDeterministic(t *testing.T) {
	j := limitFixture(t)
	for _, limit := range []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
		30 * time.Millisecond, 40 * time.Millisecond,
	} {
		base := mustRun(t, j, Options{TimeLimit: limit})
		for i := 0; i < 3; i++ {
			again := mustRun(t, j, Options{TimeLimit: limit})
			if !reflect.DeepEqual(base, again) {
				t.Fatalf("limit %v: run %d diverged:\nbase  %+v\nagain %+v", limit, i, base, again)
			}
			pooled, err := RunPooled(context.Background(), j, timing(j, Options{TimeLimit: limit}))
			if err != nil {
				t.Fatalf("RunPooled: %v", err)
			}
			if !reflect.DeepEqual(base, pooled) {
				t.Fatalf("limit %v: pooled run diverged:\nbase   %+v\npooled %+v", limit, base, pooled)
			}
		}
	}
}

// TestTimeLimitNoDeadlockError asserts a truncated run never reports
// the (spurious) deadlock a half-drained trace would otherwise look
// like.
func TestTimeLimitNoDeadlockError(t *testing.T) {
	j := limitFixture(t)
	if _, err := Run(context.Background(), j, timing(j, Options{TimeLimit: time.Millisecond})); err != nil {
		t.Fatalf("truncated run errored: %v", err)
	}
}
