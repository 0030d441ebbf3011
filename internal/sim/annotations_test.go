package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// overlayJob builds a small two-worker job with event sync, a
// collective and host gaps: every kind of op the engine times.
func overlayJob(t *testing.T) *trace.Job {
	t.Helper()
	mkWorker := func(rank int) *trace.Worker {
		w := &trace.Worker{Rank: rank, World: 2}
		w.Append(trace.Op{Kind: trace.KindKernel, Name: "gemm", Stream: 1, Shape: &trace.Shape{Name: "gemm"}, HostGap: 3 * time.Microsecond})
		w.Append(trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 9, EventVer: 1})
		w.Append(trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 9, EventVer: 1})
		w.Append(trace.Op{Kind: trace.KindCollective, Stream: 2, Coll: &trace.Collective{
			Op: "ncclAllReduce", CommID: 7, Seq: 0, NRanks: 2, Rank: rank, Peer: -1, Bytes: 1 << 20,
		}})
		w.Append(trace.Op{Kind: trace.KindMemcpy, Stream: 1, Bytes: 4096, Shape: &trace.Shape{Bytes: 4096, MemKind: "DtoH"}})
		w.Append(trace.Op{Kind: trace.KindDeviceSync})
		return w
	}
	job, err := trace.NewJob([]*trace.Worker{mkWorker(0), mkWorker(1)})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// annotateFor writes synthetic durations for the job's device work
// into an overlay over it.
func annotateFor(job *trace.Job, ann *trace.Annotations) {
	for wi, w := range job.Workers {
		for i := range w.Ops {
			if w.Ops[i].IsDeviceWork() {
				ann.Set(wi, i, time.Duration(10+wi*3+i)*time.Microsecond)
			}
		}
	}
}

// TestOverlayRunMatchesCloneRun pins the overlay contract: a run reads
// every duration from Options.Annotations and leaves the job as it
// was, so a run over a sealed copy of the job (Worker.Compact, what
// the emulator seals) under the same overlay is bit-identical — in
// prediction mode and in physical mode (jitter + contention), where
// collective and kernel durations both feed the jitter draws.
func TestOverlayRunMatchesCloneRun(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"prediction", Options{}},
		{"physical", Options{JitterFrac: 0.012, CommContention: 0.06, Seed: 99}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			job := overlayJob(t)
			ann := trace.NewAnnotations(job)
			annotateFor(job, ann)
			opts := mode.opts
			opts.Annotations = ann

			cloned := &trace.Job{}
			for _, w := range job.Workers {
				cloned.Workers = append(cloned.Workers, w.Compact())
			}
			want, err := Run(context.Background(), cloned, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), job, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("overlay run diverged from clone run:\nclone:   %+v\noverlay: %+v", want, got)
			}
			if want.Makespan <= 0 {
				t.Fatalf("makespan %v: the overlay's durations were not read", want.Makespan)
			}
			// The overlay run must not have touched the job.
			if !reflect.DeepEqual(job, overlayJob(t)) {
				t.Fatal("overlay run mutated the job")
			}
		})
	}
}
