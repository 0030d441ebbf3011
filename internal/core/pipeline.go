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
// the collated trace artifact, kept: its traces are sealed into
// storage of their own, so it may be cached, serialized or held for
// as long as the caller likes. Out-of-memory configurations are a
// result, not an error: the returned capture carries the OOM verdict
// (with a nil Job) exactly as the emulator detected it. Cancellation
// of ctx aborts emulation between ranks.
func (p *Pipeline) Capture(ctx context.Context, w workload.Workload) (*Capture, error) {
	return p.capture(ctx, w, true)
}

// CaptureOwned is Capture for a caller that is the capture's only
// owner and drops it once done: its traces are sealed in place and
// stay in the emulator's recording buffers, so the seal copies
// nothing. The caller calls the capture's Release once no replay of
// it runs, and neither caches nor serializes it.
func (p *Pipeline) CaptureOwned(ctx context.Context, w workload.Workload) (*Capture, error) {
	return p.capture(ctx, w, false)
}

// capture is Capture (keep set) and CaptureOwned.
func (p *Pipeline) capture(ctx context.Context, w workload.Workload, keep bool) (*Capture, error) {
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
	workers, comms, sizes, owned, err := p.emulate(ctx, w, c, keep)
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
	if len(owned) > 0 {
		c.release = func() { releaseAll(owned) }
	}
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
	var timer trace.Timer
	switch {
	case p.Opts.Oracle != nil:
		timer = p.Opts.Oracle
	case p.Suite != nil:
		timer = p.Suite
	default:
		return nil, errors.New("core: Simulate needs a trained Suite or an Oracle")
	}
	return p.replay(ctx, c, timer, false, modelFLOPs, dtype, e, limit)
}

// Measure replays the capture against the silicon ground truth in
// physical mode — "deploy the job on the cluster and time it". The
// capture is never mutated, so measurement and any number of
// predictions share one capture. It needs no trained suite, and the
// prediction-only options (Congestion, Faults) do not apply.
func (p *Pipeline) Measure(ctx context.Context, c *Capture, oracle *silicon.Oracle, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	return p.replay(ctx, c, oracle, true, modelFLOPs, dtype, nil, 0)
}

// replay is the back half of every prediction and every measurement,
// the only way from a capture into the engine: look up the capture's
// plan for the timer (built on the first replay of the pair, beside
// the index compile on the capture's first replay), hand the
// engine the plan's overlay and the capture's compiled index — both
// read in place, shared by every replay — build the run's options —
// prediction, or the silicon's physical mode — run the engine (the
// caller's, or one acquired for the call when e is nil), walk the
// fault plan on the same engine, and fill the report.
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
	t0 := time.Now()
	plan, err := c.prepare(ctx, timer)
	if err != nil {
		return nil, err
	}
	rep.Stages.Estimate = time.Since(t0)

	t0 = time.Now()
	job := c.Job
	obs := p.Opts.Observer
	var bd *sim.Breakdown
	if p.Opts.Breakdown {
		bd = sim.NewBreakdown()
		obs = sim.Observers(obs, bd)
	}
	simOpts := sim.Options{}
	faultPlan := p.Opts.Faults
	if physical {
		// The silicon models contention its own way and knows no
		// operational faults: the prediction-only options do not apply.
		simOpts, faultPlan = silicon.PhysicalOptions(p.Opts.Seed), nil
	} else if p.Opts.Congestion != nil {
		if simOpts.Congestion, err = c.congestionFor(ctx, p.Opts.Congestion); err != nil {
			return nil, err
		}
	}
	simOpts.Index, simOpts.Annotations = c.simIndex(), plan.Overlay()
	simOpts.Observer, simOpts.TimeLimit = obs, limit
	if faultPlan != nil {
		// Fault plans address world ranks: a deduplicated or
		// selectively launched capture is missing potential victims.
		if len(job.Workers) != c.TotalWorkers {
			return nil, fmt.Errorf("core: fault scenarios need every rank simulated, capture of %s has %d of %d workers (capture with dedup disabled)",
				c.Workload, len(job.Workers), c.TotalWorkers)
		}
		if simOpts.Faults, err = faultPlan.Injection(job); err != nil {
			return nil, err
		}
	}
	e.Reset(job, simOpts)
	sr, err := e.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: simulating %s: %w", c.Workload, err)
	}
	if faultPlan != nil && !sr.Truncated {
		// The main run above is the straggler-perturbed baseline; the
		// walk re-runs the job per failure (and once cleanly when
		// stragglers skew the baseline) on the same engine, with no
		// observer: the caller's observer saw exactly one run, the
		// main one.
		runner := func(rctx context.Context, inj *sim.Injection, robs sim.Observer) (*sim.Report, error) {
			o := simOpts
			o.Faults, o.Observer = inj, robs
			e.Reset(job, o)
			return e.Run(rctx)
		}
		if rep.Recovery, err = faults.Evaluate(ctx, faultPlan, job, sr, runner); err != nil {
			return nil, fmt.Errorf("core: fault scenario for %s: %w", c.Workload, err)
		}
	}
	rep.Stages.Simulate = time.Since(t0)

	rep.Truncated = sr.Truncated
	p.fill(rep, sr, modelFLOPs, dtype)
	if bd != nil {
		rep.Stalls = &StallProfile{Workers: bd.Result(sr)}
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
	if modelFLOPs > 0 && rep.IterTime > 0 {
		peak := p.Cluster.Node.GPU.PeakTFLOPS(dtype) * 1e12
		avail := rep.IterTime.Seconds() * float64(rep.TotalWorkers) * peak
		rep.MFU = modelFLOPs / avail
	}
}

// emulate runs the workload's ranks through transparent emulators
// and returns the workers the capture keeps, with the complete
// communicator membership: from the traces of every emulated rank,
// supplemented by configuration knowledge (GroupAware) where only a
// subset ran. With keep set the workers are sealed into storage of
// their own; otherwise they are sealed in place and owned holds the
// releases that recycle their recordings.
//
// Capture takes one of the paper's two routes. Selective launch is
// trusted outright: the workload names its unique ranks (§7.4).
// Otherwise every rank runs the workload's one-iteration probe (or
// the workload itself), the probes are deduplicated, and the full
// workload runs only on the representatives (§4.2). A deduplicated
// probe is sealed in place whatever keep says: only its
// representatives can outlive the dedup, and they are copied out only
// when the probe is the full workload and the capture is kept.
func (p *Pipeline) emulate(ctx context.Context, w workload.Workload, c *Capture, keep bool) (workers []*trace.Worker, comms map[uint64][]int, sizes map[uint64]int, owned []func(), err error) {
	if sl, ok := w.(workload.SelectiveLauncher); ok && p.Opts.SelectiveLaunch && !p.Opts.NoDedup {
		workers, inits, owned, err := p.emulateRanks(ctx, w, sl.UniqueRanks(), c, keep)
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
	probed, inits, probes, err := p.emulateRanks(ctx, probe, allRanks(w.World()), c, keep && !dedup)
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
		workers, owned = adopt(unique, probes, keep)
		return workers, comms, sizes, owned, nil
	}
	reps := make([]int, len(unique))
	for i, u := range unique {
		reps[i] = u.Rank
	}
	releaseAll(probes)
	if workers, _, owned, err = p.emulateRanks(ctx, w, reps, c, keep); err != nil {
		return nil, nil, nil, nil, err
	}
	return workers, comms, sizes, owned, nil
}

// adopt makes the representatives of a full probe sealed in place the
// capture's workers: unique is in rank order and probes[r] releases
// rank r's trace. With keep set each representative is copied out and
// every probe released; otherwise the representatives' releases are
// the capture's and the rest run now.
func adopt(unique []*trace.Worker, probes []func(), keep bool) ([]*trace.Worker, []func()) {
	if keep {
		for i, u := range unique {
			unique[i] = u.Compact()
		}
		releaseAll(probes)
		return unique, nil
	}
	owned := make([]func(), 0, len(unique))
	for r, release := range probes {
		if len(owned) < len(unique) && unique[len(owned)].Rank == r {
			owned = append(owned, release)
		} else {
			release()
		}
	}
	return unique, owned
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
// With keep set each rank's trace is sealed into storage of its own
// (emulator.Trace); otherwise it is sealed in place (emulator.Seal)
// and releases[i] recycles the ith rank's recording. Beside each
// rank's trace it returns the rank's communicator inits, read in the
// fan-out right after the seal, while the ops are still in cache.
func (p *Pipeline) emulateRanks(ctx context.Context, w workload.Workload, ranks []int, c *Capture, keep bool) (workers []*trace.Worker, inits [][]collator.CommInit, releases []func(), err error) {
	if c != nil {
		c.RankEmulations += len(ranks)
	}
	workers = make([]*trace.Worker, len(ranks))
	inits = make([][]collator.CommInit, len(ranks))
	if !keep {
		releases = make([]func(), len(ranks))
	}
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
		var tr *trace.Worker
		if keep {
			tr = em.Trace()
		} else {
			tr, releases[i] = em.Seal()
		}
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
