package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"maya"
	"maya/internal/collator"
	"maya/internal/emulator"
	"maya/internal/estimator"
	"maya/internal/sim"
	"maya/internal/trace"
	wl "maya/internal/workload"
)

// ladderRun is one layer-by-layer execution of a prediction, driven
// from bench code through the layers' public functions: emulate each
// unique rank, collate, build the estimate plan, fill an overlay, run
// the engine. It must land on exactly the answer Predict gives.
type ladderRun struct {
	iter     time.Duration
	peak     int64
	oom      bool
	ranks    int // ranks emulated
	traceOps int // ops in the emulated traces
	// Wall-clock of each rung.
	emulate, collate, planBuild, planFill, simRun time.Duration
	emulateAlloc                                  uint64 // bytes allocated during the emulate rung
}

func (l ladderRun) total() time.Duration {
	return l.emulate + l.collate + l.planBuild + l.planFill + l.simRun
}

// runLadder executes the ladder for one workload on one cluster. With
// a tracer it records one span per rung (and per emulated rank) under
// parent and reads the allocator around the emulate rung.
func runLadder(ctx context.Context, cluster maya.Cluster, suite *estimator.Suite, w maya.Workload, tr *tracer, parent, opID int) (ladderRun, error) {
	var l ladderRun
	sl, ok := w.(wl.SelectiveLauncher)
	if !ok {
		return l, fmt.Errorf("ladder: %s does not name its unique ranks", w.Name())
	}
	ranks := sl.UniqueRanks()
	l.ranks = len(ranks)

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	id := tr.start("emulate", parent, opID)
	workers := make([]*trace.Worker, len(ranks))
	errs := make([]error, len(ranks))
	var next atomic.Int64
	var wg sync.WaitGroup
	// The same bounded pool core.Pipeline uses, so the rung's wall
	// time is comparable with Predict's emulate stage.
	for g := 0; g < min(runtime.GOMAXPROCS(0), len(ranks)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ranks) {
					return
				}
				rid := tr.start("emulate.rank", id, opID)
				em := emulator.New(emulator.Config{
					Rank: ranks[i], World: w.World(), GPU: cluster.Node.GPU, Host: cluster.Host,
				})
				err := w.Run(ranks[i], em)
				workers[i] = em.Trace()
				tr.end(rid)
				if err != nil && !workers[i].OOM {
					errs[i] = fmt.Errorf("ladder: emulating rank %d: %w", ranks[i], err)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return l, err
		}
	}
	comms, sizes, err := collator.CommMembership(workers)
	if err != nil {
		return l, err
	}
	if ga, ok := w.(wl.GroupAware); ok {
		for cid, group := range ga.CommGroups() {
			if len(comms[cid]) < len(group) {
				comms[cid], sizes[cid] = group, len(group)
			}
		}
	}
	tr.end(id)
	l.emulate = time.Since(t0)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		l.emulateAlloc = after.TotalAlloc - before.TotalAlloc
	}
	for _, wk := range workers {
		l.traceOps += len(wk.Ops)
		l.peak = max(l.peak, wk.PeakBytes)
		l.oom = l.oom || wk.OOM
	}
	if l.oom {
		return l, nil
	}

	t0 = time.Now()
	id = tr.start("collate", parent, opID)
	col, err := collator.Collate(ctx, workers, collator.Options{})
	tr.end(id)
	l.collate = time.Since(t0)
	if err != nil {
		return l, err
	}

	t0 = time.Now()
	id = tr.start("plan_build", parent, opID)
	plan, err := suite.BuildEstimatePlan(ctx, col.Job, comms, sizes)
	tr.end(id)
	l.planBuild = time.Since(t0)
	if err != nil {
		return l, err
	}

	t0 = time.Now()
	id = tr.start("plan_fill", parent, opID)
	ann := trace.AcquireAnnotations(col.Job)
	filled := ann != nil && plan.Fill(ann)
	tr.end(id)
	l.planFill = time.Since(t0)
	if !filled {
		return l, fmt.Errorf("ladder: the plan does not fit its own job's overlay")
	}
	defer ann.Release()

	t0 = time.Now()
	id = tr.start("sim_run", parent, opID)
	sr, err := sim.RunPooled(ctx, col.Job, sim.Options{Participants: col.Participants, Annotations: ann})
	tr.end(id)
	l.simRun = time.Since(t0)
	if err != nil {
		return l, err
	}
	l.iter = sr.IterTime()
	return l, nil
}

// matches reports whether the ladder landed on the report's answer.
func (l ladderRun) matches(r *maya.Report) error {
	if l.oom != r.OOM || l.iter != r.IterTime || l.peak != r.PeakMemBytes {
		return fmt.Errorf("layer-by-layer ladder gives iter %v peak %d oom %t, Predict gives iter %v peak %d oom %t",
			l.iter, l.peak, l.oom, r.IterTime, r.PeakMemBytes, r.OOM)
	}
	return nil
}
