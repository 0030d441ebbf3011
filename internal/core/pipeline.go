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
	"sort"
	"sync"
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
	// Validate enables cross-worker collective consistency checks.
	Validate bool
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
	Emulate  time.Duration
	Collate  time.Duration
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
	// simulated-clock horizon (SimulateScratch's limit): every timing
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
//	Simulate — fill a pooled duration overlay from the capture's
//	           estimate plan (learned suite, or Opts.Oracle) and
//	           replay in prediction mode
//	Measure  — the same replay, priced by the silicon ground truth
//	           and run in physical mode (the deployment stand-in)
//
// Predict and MeasureActual are thin compositions; callers that
// evaluate one workload several ways (oracle vs learned, ±netsim,
// predicted vs actual) should Capture once and fan out.
type Pipeline struct {
	Cluster hardware.Cluster
	Suite   *estimator.Suite
	Opts    Options
}

// Capture runs the emulation and collation stages once and returns
// the collated trace artifact. Out-of-memory configurations are a
// result, not an error: the returned capture carries the OOM verdict
// (with a nil Job) exactly as the emulator detected it. Cancellation
// of ctx aborts emulation between ranks and collation between
// passes.
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
	workers, comms, sizes, err := p.emulate(ctx, w, c)
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
		return c, nil
	}

	t0 = time.Now()
	col, err := collator.Collate(ctx, workers, collator.Options{Validate: p.Opts.Validate})
	if err != nil {
		return nil, err
	}
	c.CollateTime = time.Since(t0)
	// Membership comes from the emulation pass (complete, including
	// GroupAware supplements), not the collator's unique-worker view.
	c.Job, c.Comms, c.CommSizes = col.Job, comms, sizes
	c.Participants = col.Participants
	return c, nil
}

// Simulate replays the capture in prediction mode, kernels priced by
// the ground-truth oracle when Opts.Oracle is set and by the learned
// suite otherwise. The capture is never mutated: durations land in a
// pooled overlay the simulator reads through, so any number of
// concurrent Simulate calls can reuse one capture; the report's
// Emulate/Collate stage timings are zero because those stages did not
// run.
func (p *Pipeline) Simulate(ctx context.Context, c *Capture, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	return p.SimulateScratch(ctx, c, modelFLOPs, dtype, nil, 0)
}

// SimScratch is caller-owned simulation scratch: a persistent engine
// and annotation overlay that one goroutine reuses across many
// Simulate calls. A search worker evaluating thousands of trials owns
// one SimScratch for its lifetime, so trial evaluation re-acquires
// nothing per trial (no cross-goroutine pool churn, storage stays hot
// in one worker's hands). Not safe for concurrent use; zero value is
// not usable — construct with NewSimScratch.
type SimScratch struct {
	engine *sim.Engine
	ann    *trace.Annotations
}

// NewSimScratch returns fresh scratch for one evaluation goroutine.
func NewSimScratch() *SimScratch {
	return &SimScratch{engine: sim.NewEngine(), ann: &trace.Annotations{}}
}

var simScratchPool = sync.Pool{New: func() any { return NewSimScratch() }}

// AcquireSimScratch returns scratch from a process-wide pool. Unlike
// NewSimScratch it usually hands back storage already grown by a
// previous owner, so a fresh batch of search workers skips the
// slice-growth churn of their first trials. Pair with Release.
func AcquireSimScratch() *SimScratch {
	return simScratchPool.Get().(*SimScratch)
}

// Release scrubs the scratch — dropping every reference to the last
// simulated job — and parks it for the next AcquireSimScratch.
// The scratch must not be used after Release.
func (s *SimScratch) Release() {
	s.engine.Scrub()
	simScratchPool.Put(s)
}

// run is the one place outside internal/sim that drives an engine.
func (s *SimScratch) run(ctx context.Context, job *trace.Job, o sim.Options) (*sim.Report, error) {
	s.engine.Reset(job, o)
	return s.engine.Run(ctx)
}

// SimulateScratch is Simulate with two search-loop extensions: a
// non-nil scratch is the caller's persistent engine and overlay (nil
// borrows one from the process-wide pool for the call), and when
// limit is positive the simulation stops at that simulated-clock
// horizon, returning a report with Truncated set (see
// sim.Options.TimeLimit). A nil scratch with zero limit is exactly
// Simulate.
func (p *Pipeline) SimulateScratch(ctx context.Context, c *Capture, modelFLOPs float64, dtype hardware.DType, scratch *SimScratch, limit time.Duration) (*Report, error) {
	var timer trace.Timer
	switch {
	case p.Opts.Oracle != nil:
		timer = p.Opts.Oracle
	case p.Suite != nil:
		timer = p.Suite
	default:
		return nil, errors.New("core: Simulate needs a trained Suite or an Oracle")
	}
	return p.replay(ctx, c, timer, false, modelFLOPs, dtype, scratch, limit)
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
// the only way from a capture into the engine: rebind the scratch
// overlay to the capture's job, fill it from the capture's plan for
// the timer (built on the first replay of the pair, a table copy
// after), build the run's options — prediction, or the silicon's
// physical mode — run the scratch engine, walk the fault plan on the
// same engine, and fill the report.
func (p *Pipeline) replay(ctx context.Context, c *Capture, timer trace.Timer, physical bool, modelFLOPs float64, dtype hardware.DType, scratch *SimScratch, limit time.Duration) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := c.baseReport()
	if c.OOM {
		return rep, nil
	}
	if scratch == nil {
		scratch = AcquireSimScratch()
		defer scratch.Release()
	}
	t0 := time.Now()
	job, ann := c.Job, scratch.ann
	if !ann.Rebind(job) {
		// ReadCapture rejects such traces and the emulator never builds
		// one, so this is a Capture assembled by hand.
		return nil, fmt.Errorf("core: capture of %s is not positionally indexed (an op's seq is not its index)", c.Workload)
	}
	plan, err := c.planFor(ctx, timer)
	if err != nil {
		return nil, err
	}
	if !plan.Fill(ann) {
		return nil, fmt.Errorf("core: capture of %s: job changed after its estimate plan was built", c.Workload)
	}
	rep.Stages.Estimate = time.Since(t0)

	t0 = time.Now()
	obs := p.Opts.Observer
	var bd *sim.Breakdown
	if p.Opts.Breakdown {
		bd = sim.NewBreakdown()
		obs = sim.Observers(obs, bd)
	}
	simOpts := sim.Options{Participants: c.Participants}
	faultPlan := p.Opts.Faults
	if physical {
		// The silicon models contention its own way and knows no
		// operational faults: the prediction-only options do not apply.
		simOpts, faultPlan = silicon.PhysicalOptions(p.Opts.Seed, c.Participants), nil
	} else if p.Opts.Congestion != nil {
		if simOpts.Congestion, err = c.congestionFor(ctx, p.Opts.Congestion); err != nil {
			return nil, err
		}
	}
	simOpts.Observer, simOpts.Annotations, simOpts.TimeLimit = obs, ann, limit
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
	sr, err := scratch.run(ctx, job, simOpts)
	if err != nil {
		return nil, fmt.Errorf("core: simulating %s: %w", c.Workload, err)
	}
	if faultPlan != nil && !sr.Truncated {
		// The main run above is the straggler-perturbed baseline; the
		// walk re-runs the job per failure (and once cleanly when
		// stragglers skew the baseline) on the same engine. Per-run
		// observers are Evaluate's own — the caller's observer saw
		// exactly one run, the main one.
		runner := func(rctx context.Context, inj *sim.Injection, robs sim.Observer) (*sim.Report, error) {
			o := simOpts
			o.Faults, o.Observer = inj, robs
			return scratch.run(rctx, job, o)
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

// Predict runs the full pipeline: Capture then Simulate. modelFLOPs
// is the workload's per-iteration model FLOP count (for MFU); pass 0
// to skip MFU. Every stage observes ctx: cancellation aborts
// emulation between ranks, collation, estimation and the simulator's
// event loop, so a large multi-rank prediction stops promptly and
// returns ctx.Err().
func (p *Pipeline) Predict(ctx context.Context, w workload.Workload, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	c, err := p.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	rep, err := p.Simulate(ctx, c, modelFLOPs, dtype)
	if err != nil {
		return nil, err
	}
	rep.Stages.Emulate, rep.Stages.Collate = c.EmulateTime, c.CollateTime
	return rep, nil
}

// MeasureActual is the ground-truth path: Capture then Measure —
// same trace, true kernel times, physical-mode simulation. It stands
// in for deploying the workload on the cluster.
func (p *Pipeline) MeasureActual(ctx context.Context, w workload.Workload, oracle *silicon.Oracle, modelFLOPs float64, dtype hardware.DType) (*Report, error) {
	c, err := p.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	rep, err := p.Measure(ctx, c, oracle, modelFLOPs, dtype)
	if err != nil {
		return nil, err
	}
	rep.Stages.Emulate, rep.Stages.Collate = c.EmulateTime, c.CollateTime
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

// emulate runs the workload's ranks through transparent emulators,
// applying selective launch, verified structural deduplication
// (ClassHinter) or dynamic deduplication. Alongside the (possibly
// reduced) worker set it returns the complete communicator
// membership: from the pre-deduplication traces when all ranks were
// emulated, supplemented by configuration knowledge (GroupAware) for
// selectively launched and class-hinted jobs.
func (p *Pipeline) emulate(ctx context.Context, w workload.Workload, c *Capture) ([]*trace.Worker, map[uint64][]int, map[uint64]int, error) {
	// Selective launch: the workload names its unique ranks a priori.
	if p.Opts.SelectiveLaunch && !p.Opts.NoDedup {
		if sl, ok := w.(workload.SelectiveLauncher); ok {
			workers, err := p.emulateRanks(ctx, w, sl.UniqueRanks(), c)
			if err != nil {
				return nil, nil, nil, err
			}
			comms, sizes, err := p.membership(w, workers)
			return workers, comms, sizes, err
		}
	}
	if !p.Opts.NoDedup && w.World() > 1 {
		// Structural deduplication: the workload predicts its rank
		// equivalence classes from topology; the pipeline probes one
		// representative per class plus a deterministic verification
		// sample and falls back to the full probe on any mismatch, so
		// capture scales with unique structure instead of world size.
		if ch, ok := w.(workload.ClassHinter); ok {
			workers, comms, sizes, served, err := p.emulateClassHinted(ctx, w, ch, c)
			if err != nil {
				return nil, nil, nil, err
			}
			if served {
				c.ClassHinted = true
				return workers, comms, sizes, nil
			}
		}
		// Dynamic deduplication: probe every rank for one iteration,
		// hash the operation streams, then run the full workload only
		// on the unique representatives (paper §4.2).
		if pr, ok := w.(workload.Prober); ok {
			probe := pr.Probe()
			probed, err := p.emulateRanks(ctx, probe, allRanks(w.World()), c)
			if err != nil {
				return nil, nil, nil, err
			}
			comms, sizes, err := p.membership(w, probed)
			if err != nil {
				return nil, nil, nil, err
			}
			unique, _ := collator.Deduplicate(probed)
			reps := make([]int, len(unique))
			for i, u := range unique {
				reps[i] = u.Rank
			}
			if sameWorkload(probe, w) {
				// Single-iteration workloads: the probe trace is the
				// full trace.
				return unique, comms, sizes, nil
			}
			workers, err := p.emulateRanks(ctx, w, reps, c)
			if err != nil {
				return nil, nil, nil, err
			}
			return workers, comms, sizes, nil
		}
	}
	workers, err := p.emulateRanks(ctx, w, allRanks(w.World()), c)
	if err != nil {
		return nil, nil, nil, err
	}
	comms, sizes, err := p.membership(w, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.Opts.NoDedup || len(workers) <= 1 {
		return workers, comms, sizes, nil
	}
	unique, _ := collator.Deduplicate(workers)
	return unique, comms, sizes, nil
}

// emulateClassHinted is the structural-dedup fast path: probe only
// class representatives plus a verification sample, check the
// samples' trace signatures against their representatives, and build
// the capture from the deduplicated probes. served=false (with nil
// error) means the hint could not be trusted — malformed partition, a
// signature mismatch, or membership the workload's group knowledge
// cannot complete — and the caller must fall back to the full probe,
// which produces bit-identical results by construction.
func (p *Pipeline) emulateClassHinted(ctx context.Context, w workload.Workload, ch workload.ClassHinter, c *Capture) (workers []*trace.Worker, comms map[uint64][]int, sizes map[uint64]int, served bool, err error) {
	classes := ch.RankClasses()
	if !validClasses(classes, w.World()) {
		return nil, nil, nil, false, nil
	}
	var probeRanks []int
	for _, class := range classes {
		probeRanks = append(probeRanks, class[0])
		probeRanks = append(probeRanks, verificationSample(class)...)
	}
	sort.Ints(probeRanks)

	// Without a Prober the workload is its own (full) probe.
	probe := workload.Workload(w)
	probeIsFull := true
	if pr, ok := w.(workload.Prober); ok {
		probe = pr.Probe()
		probeIsFull = sameWorkload(probe, w)
	}
	probed, err := p.emulateRanks(ctx, probe, probeRanks, c)
	if err != nil {
		return nil, nil, nil, false, err
	}
	// Deduplicate merges the verification samples back into their
	// representatives — and merges hinted classes that turn out to be
	// duplicates of each other, exactly as the full probe would. Its
	// groups double as the verification: a sampled member whose trace
	// diverges from its class representative (by signature or by the
	// collision guard's structural check) lands in a different group.
	unique, groups := collator.Deduplicate(probed)
	repOf := make(map[int]int, len(probed))
	for rep, ranks := range groups {
		for _, r := range ranks {
			repOf[r] = rep
		}
	}
	for _, class := range classes {
		for _, s := range verificationSample(class) {
			if repOf[s] != repOf[class[0]] {
				// The hint lied: a sampled member's trace diverges
				// from its representative's.
				return nil, nil, nil, false, nil
			}
		}
	}
	comms, sizes, err = p.membership(w, probed)
	if err != nil {
		return nil, nil, nil, false, err
	}
	// The fast path must not change results. The full probe derives
	// complete communicator membership from every rank's trace; here
	// only the probed subset plus the workload's group knowledge is
	// available, so any group left partial forces the fallback.
	for id, size := range sizes {
		if len(comms[id]) != size {
			return nil, nil, nil, false, nil
		}
	}
	if probeIsFull {
		// The probe trace is the full trace (single-iteration
		// workloads and workloads without a cheap probe).
		return unique, comms, sizes, true, nil
	}
	reps := make([]int, len(unique))
	for i, u := range unique {
		reps[i] = u.Rank
	}
	workers, err = p.emulateRanks(ctx, w, reps, c)
	if err != nil {
		return nil, nil, nil, false, err
	}
	return workers, comms, sizes, true, nil
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

// verificationSample returns the deterministic sample of non-
// representative class members whose traces the fast path checks
// against the representative's: the last member, plus the middle one
// for classes of three or more.
func verificationSample(class []int) []int {
	switch {
	case len(class) <= 1:
		return nil
	case len(class) == 2:
		return class[1:]
	default:
		mid, last := class[len(class)/2], class[len(class)-1]
		if mid == last {
			return []int{last}
		}
		return []int{mid, last}
	}
}

// validClasses reports whether classes is a well-formed partition of
// [0, world): every rank exactly once, each class non-empty and
// sorted ascending.
func validClasses(classes [][]int, world int) bool {
	seen := make([]bool, world)
	n := 0
	for _, class := range classes {
		if len(class) == 0 {
			return false
		}
		prev := -1
		for _, r := range class {
			if r < 0 || r >= world || r <= prev || seen[r] {
				return false
			}
			seen[r] = true
			prev = r
			n++
		}
	}
	return n == world
}

// membership reconstructs communicator membership from traces,
// supplemented by workload configuration knowledge when available.
func (p *Pipeline) membership(w workload.Workload, workers []*trace.Worker) (map[uint64][]int, map[uint64]int, error) {
	comms, sizes, err := collator.CommMembership(workers)
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
func (p *Pipeline) emulateRanks(ctx context.Context, w workload.Workload, ranks []int, c *Capture) ([]*trace.Worker, error) {
	if c != nil {
		c.RankEmulations += len(ranks)
	}
	workers := make([]*trace.Worker, len(ranks))
	err := pool.Each(ctx, len(ranks), runtime.GOMAXPROCS(0), func(_, i int) error {
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
		if err != nil && !tr.OOM {
			return fmt.Errorf("core: emulating rank %d: %w", rank, err)
		}
		workers[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return workers, nil
}

func allRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}
