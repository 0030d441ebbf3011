// Package core is Maya's prediction pipeline: transparent emulation
// of every (unique) worker, trace collation, kernel-runtime
// annotation and discrete-event simulation, producing a performance
// report for an unmodified training workload — no accelerator
// hardware involved.
//
// The same machinery measures "actual" performance by annotating the
// identical trace with the synthetic-silicon ground truth and
// replaying it in the simulator's physical mode; every evaluation
// experiment compares these two paths.
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"maya/internal/collator"
	"maya/internal/emulator"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/hardware"
	"maya/internal/netsim"
	"maya/internal/pool"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/trace"
	"maya/internal/workload"
)

// Options configures prediction runs.
type Options struct {
	// NoDedup disables worker deduplication: every rank is emulated
	// and simulated (the Fig. 14 ablation baseline).
	NoDedup bool
	// SelectiveLaunch uses the workload's own unique-rank knowledge
	// (workload.SelectiveLauncher) instead of hash-based discovery,
	// skipping the all-ranks probe (§7.4).
	SelectiveLaunch bool
	// Oracle, when set, annotates kernels with ground-truth runtimes
	// instead of learned estimates — the "oracle" rows of Table 3.
	Oracle *silicon.Oracle
	// Seed namespaces measurement randomness for actual runs.
	Seed uint64
	// Observer, when set, watches the simulation at CUDA-API
	// granularity (e.g. a sim.Timeline recording a Chrome trace).
	// Use one observer per run; it is not shared safely across
	// concurrent calls.
	Observer sim.Observer
	// Topology is the network-topology spec predictions run against
	// (topo.ByName syntax; empty means the cluster's canonical
	// hierarchy). Stamped into captures for provenance.
	Topology string
	// Congestion, when set, resolves collective durations at
	// simulation time against this network model's shared-link
	// occupancy: concurrently-active collectives sharing a link split
	// its bandwidth. Nil replays annotated durations verbatim.
	Congestion *netsim.Model
	// Breakdown attaches a stall-attribution observer to the run and
	// fills Report.Stalls with the per-worker result.
	Breakdown bool
	// Faults, when set, perturbs the simulation with the plan's
	// stragglers and evaluates its failures, resizes and checkpoint
	// schedule into Report.Recovery. Fault scenarios address world
	// ranks, so the capture must carry every worker (NoDedup, no
	// selective launch). Nil costs nothing.
	Faults *faults.Plan
}

// StageTimings records the wall-clock cost of each pipeline stage
// (the Fig. 13 / Table 6 breakdown).
type StageTimings struct {
	Emulate time.Duration
	Collate time.Duration
	// Estimate is the wait for the capture's estimate plan. On the
	// capture's first replay it overlaps the compile of the capture's
	// index, which runs beside the plan build and is counted here, not
	// in Simulate.
	Estimate time.Duration
	Simulate time.Duration
}

// Total sums the stages.
func (s StageTimings) Total() time.Duration {
	return s.Emulate + s.Collate + s.Estimate + s.Simulate
}

// Report is a prediction (or measurement) result.
type Report struct {
	Workload string
	Cluster  string

	// IterTime is the steady-state per-iteration time.
	IterTime time.Duration
	// CommTime is the busiest worker's collective wall time.
	CommTime time.Duration
	// ExposedComm is collective time not hidden behind compute.
	ExposedComm time.Duration
	// PeakMemBytes is the largest per-device allocator high-water mark.
	PeakMemBytes int64
	// OOM marks configurations that exceeded device memory; timing
	// fields are zero in that case.
	OOM bool
	// Truncated marks a simulation abandoned at the caller's
	// simulated-clock horizon (simulate's limit): every timing
	// field is a lower bound on the full run, and the true iteration
	// time is known to exceed the horizon. Recipe searches use this to
	// discard trials provably slower than an incumbent.
	Truncated bool
	// MFU is model FLOPs utilization, when model FLOPs were supplied.
	MFU float64

	Stages        StageTimings
	UniqueWorkers int
	TotalWorkers  int

	// Stalls attributes each worker's idle time (event waits,
	// collective straggler waits, host-bound stretches, pipeline
	// bubbles). Populated only when the run requested a breakdown
	// (Options.Breakdown / maya.WithStallBreakdown); nil otherwise.
	Stalls *StallProfile

	// Recovery is the fault-scenario evaluation (goodput, lost work,
	// detection/restore/redo time). Populated only when the run
	// carried a fault plan (Options.Faults / maya.WithFaults); nil
	// otherwise.
	Recovery *sim.RecoveryReport
}

// WorkerStall is one worker's stall attribution.
type WorkerStall = sim.StallBreakdown

// StallProfile is the per-worker stall attribution of one simulated
// run — the Breakdown observer's result, indexed by simulated worker.
type StallProfile struct {
	Workers []WorkerStall
}

// Total sums the attribution across workers.
func (s *StallProfile) Total() WorkerStall {
	var t WorkerStall
	for _, w := range s.Workers {
		t.EventWait += w.EventWait
		t.CollectiveWait += w.CollectiveWait
		t.HostBound += w.HostBound
		t.Bubble += w.Bubble
		t.Busy += w.Busy
	}
	return t
}

func (r *Report) String() string {
	if r.OOM {
		return fmt.Sprintf("%s on %s: OOM (peak %0.1f GiB)", r.Workload, r.Cluster, float64(r.PeakMemBytes)/(1<<30))
	}
	return fmt.Sprintf("%s on %s: iter %v, comm %v, peak %0.1f GiB, MFU %0.1f%%",
		r.Workload, r.Cluster, r.IterTime, r.CommTime, float64(r.PeakMemBytes)/(1<<30), r.MFU*100)
}

// Pipeline predicts workload performance on one cluster. It is a
// composition of two halves over the Capture artifact:
//
//	Capture  — emulate + collate (the expensive half); yields a
//	           reusable, immutable Capture
//	Simulate — replay in prediction mode, durations read from the
//	           capture's estimate plan (learned suite, or Opts.Oracle)
//	Measure  — the same replay, priced by the silicon ground truth
//	           and run in physical mode (the deployment stand-in)
//
// The composed entry points (maya.Predictor's Predict and
// MeasureActual) live on the facade; callers that evaluate one
// workload several ways (oracle vs learned, ±netsim, predicted vs
// actual) Capture once and fan out.
type Pipeline struct {
	Cluster hardware.Cluster
	Suite   *estimator.Suite
	Opts    Options
}

// Capture runs the emulation and collation stages once and returns
// the collated trace artifact. Its traces are sealed in place: they
// stay in the emulator's recording buffers, so the seal copies
// nothing, and the capture carries their release. A caller that is
// the capture's only owner calls Release once no replay of it runs; a
// caller that caches, shares or hands it out calls Keep first.
// Out-of-memory configurations are a result, not an error: the
// returned capture carries the OOM verdict (with a nil Job) exactly as
// the emulator detected it. Cancellation of ctx aborts emulation
// between ranks.
func (p *Pipeline) Capture(ctx context.Context, w workload.Workload) (*Capture, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &Capture{
		Workload:     w.Name(),
		Cluster:      p.Cluster.Name,
		Topology:     p.Opts.Topology,
		TotalWorkers: w.World(),
	}

	t0 := time.Now()
	workers, comms, sizes, owned, err := p.emulate(ctx, w, c)
	if err != nil {
		return nil, err
	}
	c.EmulateTime = time.Since(t0)

	for _, wk := range workers {
		if wk.PeakBytes > c.PeakMemBytes {
			c.PeakMemBytes = wk.PeakBytes
		}
		if wk.OOM {
			c.OOM = true
		}
	}
	c.UniqueWorkers = len(workers)
	if c.OOM {
		releaseAll(owned)
		return c, nil
	}

	// The merge is the collate stage: membership already came from the
	// emulation pass (complete, including GroupAware supplements), and
	// the engine counts each call's joins from the job itself.
	t0 = time.Now()
	if c.Job, err = trace.NewJob(workers); err != nil {
		releaseAll(owned)
		return nil, err
	}
	c.CollateTime = time.Since(t0)
	c.Comms, c.CommSizes = comms, sizes
	c.release = func() { releaseAll(owned) }
	return c, nil
}

// releaseAll calls every release of traces sealed in place; a nil one
// is a rank that never ran.
func releaseAll(releases []func()) {
	for _, release := range releases {
		if release != nil {
			release()
		}
	}
}

// Simulate replays the capture in prediction mode, kernels priced by
// the ground-truth oracle when Opts.Oracle is set and by the learned
// suite otherwise. The capture is never mutated: the engine reads
// durations from the capture's estimate plan and addresses its wait
// maps through the capture's compiled index, both shared read-only, so
// any number of concurrent Simulate calls can reuse one capture; the
// report's Emulate/Collate stage timings are zero because those stages
// did not run.
func (p *Pipeline) Simulate(ctx context.Context, c *Capture, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	return p.simulate(ctx, c, modelFLOPs, dtype, nil, 0)
}

// simulate is Simulate with the search loop's two extensions: a
// non-nil engine is the caller's own (nil acquires one for the call),
// and when limit is positive the simulation stops at that
// simulated-clock horizon, returning a report with Truncated set (see
// sim.Options.TimeLimit).
func (p *Pipeline) simulate(ctx context.Context, c *Capture, modelFLOPs float64, dtype hardware.DType, e *sim.Engine, limit time.Duration) (*Report, error) {
	timer, err := p.timer()
	if err != nil {
		return nil, err
	}
	return p.replay(ctx, c, timer, false, modelFLOPs, dtype, e, limit)
}

// timer is what prices a prediction's kernels: the ground-truth
// oracle when Opts.Oracle is set, the learned suite otherwise.
func (p *Pipeline) timer() (trace.Timer, error) {
	switch {
	case p.Opts.Oracle != nil:
		return p.Opts.Oracle, nil
	case p.Suite != nil:
		return p.Suite, nil
	}
	return nil, errors.New("core: Simulate needs a trained Suite or an Oracle")
}

// Measure replays the capture against the silicon ground truth in
// physical mode — "deploy the job on the cluster and time it". The
// capture is never mutated, so measurement and any number of
// predictions share one capture. It needs no trained suite, and the
// prediction-only options (Congestion, Faults) do not apply.
func (p *Pipeline) Measure(ctx context.Context, c *Capture, oracle *silicon.Oracle, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	return p.replay(ctx, c, oracle, true, modelFLOPs, dtype, nil, 0)
}

// engineRun is a replay's main run as the engine route leaves it.
type engineRun struct {
	// sr is the run's timing core: no busy unions yet.
	sr *sim.Report
	// opts are the options it ran with, which the fault walk's re-runs
	// start from, and faults the plan the walk evaluates (nil on a
	// physical replay).
	opts   sim.Options
	faults *faults.Plan
	// bd is the stall-attribution observer, when the pipeline asks for
	// a breakdown.
	bd *sim.Breakdown
	// estimate is the wait for the capture's plan, and simulate the
	// cost of building the options and running the engine.
	estimate, simulate time.Duration
}

// run is the one route from a capture into the engine: look up the
// capture's plan for the timer (built on the first replay of the pair,
// beside the index compile on the capture's first replay), hand the
// engine the plan's overlay and the capture's compiled index — both
// read in place, shared by every replay — build the run's options —
// prediction, or the silicon's physical mode — and run e once, no
// further than limit when it is positive. The busy unions and the
// fault walk are the report's (replay): a search trial reads the
// timing core alone.
func (p *Pipeline) run(ctx context.Context, c *Capture, timer trace.Timer, physical bool, e *sim.Engine, limit time.Duration) (engineRun, error) {
	if err := ctx.Err(); err != nil {
		return engineRun{}, err
	}
	t0 := time.Now()
	plan, err := c.prepare(ctx, timer)
	if err != nil {
		return engineRun{}, err
	}
	r := engineRun{estimate: time.Since(t0), faults: p.Opts.Faults}

	t0 = time.Now()
	job := c.Job
	obs := p.Opts.Observer
	if p.Opts.Breakdown {
		r.bd = sim.NewBreakdown()
		obs = sim.Observers(obs, r.bd)
	}
	if physical {
		// The silicon models contention its own way and knows no
		// operational faults: the prediction-only options do not apply.
		r.opts, r.faults = silicon.PhysicalOptions(p.Opts.Seed), nil
	} else if p.Opts.Congestion != nil {
		if r.opts.Congestion, err = c.congestionFor(ctx, p.Opts.Congestion); err != nil {
			return engineRun{}, err
		}
	}
	r.opts.Index, r.opts.Annotations = c.simIndex(), plan.Overlay()
	r.opts.Observer, r.opts.TimeLimit = obs, limit
	if r.faults != nil {
		// Fault plans address world ranks: a deduplicated or
		// selectively launched capture is missing potential victims.
		if len(job.Workers) != c.TotalWorkers {
			return engineRun{}, fmt.Errorf("core: fault scenarios need every rank simulated, capture of %s has %d of %d workers (capture with dedup disabled)",
				c.Workload, len(job.Workers), c.TotalWorkers)
		}
		if r.opts.Faults, err = r.faults.Injection(job); err != nil {
			return engineRun{}, err
		}
	}
	e.Reset(job, r.opts)
	if r.sr, err = e.Run(ctx); err != nil {
		return engineRun{}, fmt.Errorf("core: simulating %s: %w", c.Workload, err)
	}
	r.simulate = time.Since(t0)
	return r, nil
}

// replay is the back half of every prediction and every measurement:
// the engine route (run), on the caller's engine or one acquired for
// the call when e is nil, then the report for the user. The main run's
// busy unions are taken before the fault walk re-runs the same engine,
// and the walk's re-runs take none.
func (p *Pipeline) replay(ctx context.Context, c *Capture, timer trace.Timer, physical bool, modelFLOPs float64, dtype hardware.DType, e *sim.Engine, limit time.Duration) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := c.baseReport()
	if c.OOM {
		return rep, nil
	}
	if e == nil {
		e = sim.AcquireEngine()
		defer e.Release()
	}
	r, err := p.run(ctx, c, timer, physical, e, limit)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sr := r.sr
	e.Busy(sr)
	if r.faults != nil && !sr.Truncated {
		// The main run above is the straggler-perturbed baseline; the
		// walk re-runs the job per failure (and once cleanly when
		// stragglers skew the baseline) on the same engine, with no
		// observer: the caller's observer saw exactly one run, the
		// main one.
		job, base := c.Job, r.opts
		runner := func(rctx context.Context, inj *sim.Injection, robs sim.Observer) (*sim.Report, error) {
			o := base
			o.Faults, o.Observer = inj, robs
			e.Reset(job, o)
			return e.Run(rctx)
		}
		if rep.Recovery, err = faults.Evaluate(ctx, r.faults, job, sr, runner); err != nil {
			return nil, fmt.Errorf("core: fault scenario for %s: %w", c.Workload, err)
		}
	}
	rep.Stages.Estimate, rep.Stages.Simulate = r.estimate, r.simulate+time.Since(t0)

	rep.Truncated = sr.Truncated
	p.fill(rep, sr, modelFLOPs, dtype)
	if r.bd != nil {
		rep.Stalls = &StallProfile{Workers: r.bd.Result(sr)}
	}
	return rep, nil
}

func (p *Pipeline) fill(rep *Report, sr *sim.Report, modelFLOPs float64, dtype hardware.DType) {
	rep.IterTime = sr.IterTime()
	for i := range sr.CommBusy {
		if sr.CommBusy[i] > rep.CommTime {
			rep.CommTime = sr.CommBusy[i]
		}
		if sr.ExposedComm[i] > rep.ExposedComm {
			rep.ExposedComm = sr.ExposedComm[i]
		}
	}
	rep.MFU = p.mfu(rep.IterTime, rep.TotalWorkers, modelFLOPs, dtype)
}

// mfu is the model FLOPs utilization of an iteration of iter on
// workers devices, or zero without model FLOPs or iteration time.
func (p *Pipeline) mfu(iter time.Duration, workers int, modelFLOPs float64, dtype hardware.DType) float64 {
	if modelFLOPs <= 0 || iter <= 0 {
		return 0
	}
	peak := p.Cluster.Node.GPU.PeakTFLOPS(dtype) * 1e12
	avail := iter.Seconds() * float64(workers) * peak
	return modelFLOPs / avail
}

// emulate runs the workload's ranks through transparent emulators
// and returns the workers the capture keeps, sealed in place, with the
// complete communicator membership: from the traces of every emulated
// rank, supplemented by configuration knowledge (GroupAware) where
// only a subset ran. owned holds the releases that recycle the
// workers' recordings.
//
// Capture takes one of the paper's two routes. Selective launch is
// trusted outright: the workload names its unique ranks (§7.4).
// Otherwise every rank runs the workload's one-iteration probe (or
// the workload itself), the probes are deduplicated, and the full
// workload runs only on the representatives (§4.2); when the probe is
// the full workload, the representatives are the capture's workers.
func (p *Pipeline) emulate(ctx context.Context, w workload.Workload, c *Capture) (workers []*trace.Worker, comms map[uint64][]int, sizes map[uint64]int, owned []func(), err error) {
	if sl, ok := w.(workload.SelectiveLauncher); ok && p.Opts.SelectiveLaunch && !p.Opts.NoDedup {
		workers, inits, owned, err := p.emulateRanks(ctx, w, sl.UniqueRanks(), c)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if comms, sizes, err = p.membership(w, inits); err != nil {
			releaseAll(owned)
			return nil, nil, nil, nil, err
		}
		return workers, comms, sizes, owned, nil
	}
	dedup := !p.Opts.NoDedup && w.World() > 1
	// Without a Prober the workload is its own (full) probe.
	probe, probeIsFull := w, true
	if pr, ok := w.(workload.Prober); ok && dedup {
		probe = pr.Probe()
		probeIsFull = sameWorkload(probe, w)
	}
	probed, inits, probes, err := p.emulateRanks(ctx, probe, allRanks(w.World()), c)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if comms, sizes, err = p.membership(w, inits); err != nil {
		releaseAll(probes)
		return nil, nil, nil, nil, err
	}
	if !dedup {
		// The probe is the full workload, every rank of it kept.
		return probed, comms, sizes, probes, nil
	}
	unique := collator.Deduplicate(probed)
	if probeIsFull {
		// The probe trace is the full trace (single-iteration
		// workloads and workloads without a cheap probe): the
		// representatives are the capture's workers.
		return unique, comms, sizes, adopt(unique, probes), nil
	}
	reps := make([]int, len(unique))
	for i, u := range unique {
		reps[i] = u.Rank
	}
	releaseAll(probes)
	if workers, _, owned, err = p.emulateRanks(ctx, w, reps, c); err != nil {
		return nil, nil, nil, nil, err
	}
	return workers, comms, sizes, owned, nil
}

// adopt returns the releases of the representatives of a full probe,
// which become the capture's, and releases every other probe now:
// unique is in rank order and probes[r] releases rank r's trace.
func adopt(unique []*trace.Worker, probes []func()) []func() {
	owned := make([]func(), 0, len(unique))
	for r, release := range probes {
		if len(owned) < len(unique) && unique[len(owned)].Rank == r {
			owned = append(owned, release)
		} else {
			release()
		}
	}
	return owned
}

// allRanks lists the ranks of a world of n, ascending.
func allRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// sameWorkload reports whether two workload interface values are the
// same value, without panicking when their dynamic type is not
// comparable (a value workload holding a slice or map field): such
// values are conservatively treated as distinct.
func sameWorkload(a, b workload.Workload) bool {
	if v := reflect.ValueOf(a); !v.IsValid() || !v.Comparable() {
		return false
	}
	return a == b
}

// membership reconstructs communicator membership from the emulated
// ranks' ncclCommInitRank records, supplemented by workload
// configuration knowledge when available.
func (p *Pipeline) membership(w workload.Workload, inits [][]collator.CommInit) (map[uint64][]int, map[uint64]int, error) {
	comms, sizes, err := collator.Membership(inits)
	if err != nil {
		return nil, nil, err
	}
	if ga, ok := w.(workload.GroupAware); ok {
		for id, group := range ga.CommGroups() {
			if len(comms[id]) < len(group) {
				comms[id] = group
				sizes[id] = len(group)
			}
		}
	}
	return comms, sizes, nil
}

// emulateRanks runs the given ranks through the bounded fan-out, one
// emulator per rank — a 4096-rank probe keeps GOMAXPROCS goroutines
// busy instead of spawning 4096 up front. Cancellation is observed at
// rank granularity: queued ranks never start after ctx is done, so a
// large emulation (the expensive stage at hyperscale) aborts after at
// most one in-flight rank per pool slot. A rank that panics is an
// error (*pool.PanicError), not the end of the process. Each call
// adds its rank count to the capture's emulation accounting.
//
// Each rank's trace is sealed in place (emulator.Trace) and
// releases[i] recycles the ith rank's recording. Beside each rank's
// trace it returns the rank's communicator inits, read in the fan-out
// right after the seal, while the ops are still in cache.
func (p *Pipeline) emulateRanks(ctx context.Context, w workload.Workload, ranks []int, c *Capture) (workers []*trace.Worker, inits [][]collator.CommInit, releases []func(), err error) {
	if c != nil {
		c.RankEmulations += len(ranks)
	}
	workers = make([]*trace.Worker, len(ranks))
	inits = make([][]collator.CommInit, len(ranks))
	releases = make([]func(), len(ranks))
	err = pool.Each(ctx, len(ranks), runtime.GOMAXPROCS(0), func(_, i int) error {
		rank := ranks[i]
		em := emulator.New(emulator.Config{
			Rank:  rank,
			World: w.World(),
			GPU:   p.Cluster.Node.GPU,
			Host:  p.Cluster.Host,
			Seed:  p.Opts.Seed,
		})
		err := w.Run(rank, em)
		tr := em.Trace()
		releases[i] = em.Release
		if err != nil && !tr.OOM {
			return fmt.Errorf("core: emulating rank %d: %w", rank, err)
		}
		workers[i], inits[i] = tr, collator.CommInits(tr)
		return nil
	})
	if err != nil {
		releaseAll(releases)
		return nil, nil, nil, err
	}
	return workers, inits, releases, nil
}
