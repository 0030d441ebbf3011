package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"maya/internal/trace"
)

// overlayJob builds a small two-worker job with event sync, a
// collective and host delays — every duration source the engine
// reads — left unannotated.
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

// annotateFor writes the same synthetic durations either into the
// job's ops (ann nil) or into an overlay over it.
func annotateFor(job *trace.Job, ann *trace.Annotations) {
	for wi, w := range job.Workers {
		for i := range w.Ops {
			op := &w.Ops[i]
			if !op.IsDeviceWork() {
				continue
			}
			d := time.Duration(10+wi*3+i) * time.Microsecond
			if ann != nil {
				ann.Set(wi, op.Seq, d)
			} else {
				op.Dur = d
			}
		}
	}
}

// TestOverlayRunMatchesCloneRun pins the overlay contract: a run that
// reads durations through Options.Annotations over the pristine job
// is bit-identical to a run over an annotated deep copy — in
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

			// A second build of the fixture is the annotated copy.
			cloned := overlayJob(t)
			annotateFor(cloned, nil)
			want, err := Run(context.Background(), cloned, mode.opts)
			if err != nil {
				t.Fatal(err)
			}

			ann := trace.NewAnnotations(job)
			if ann == nil {
				t.Fatal("job not positionally indexable")
			}
			annotateFor(job, ann)
			optsAnn := mode.opts
			optsAnn.Annotations = ann
			got, err := Run(context.Background(), job, optsAnn)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("overlay run diverged from clone run:\nclone:   %+v\noverlay: %+v", want, got)
			}
			// The overlay run must not have touched the job.
			for _, w := range job.Workers {
				for i := range w.Ops {
					if w.Ops[i].IsDeviceWork() && w.Ops[i].Dur != 0 {
						t.Fatalf("overlay run mutated the job: worker %d op %d Dur=%v", w.Rank, i, w.Ops[i].Dur)
					}
				}
			}
		})
	}
}
