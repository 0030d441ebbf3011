package main

import (
	"context"
	"fmt"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/netsim"
	"maya/internal/prand"
	"maya/internal/sim"
	"maya/internal/trace"
)

// replayVariant is one way of simulating the same full-world trace.
// Each is its own latency class for the mix rule: on the timed trace
// they cost 1.1 (learned), 2.1 (congestion), 2.5 (breakdown), 3.2
// (oracle) and 6.4 ms (faults).
type replayVariant struct {
	name string
	opts []maya.PredictOption
}

// replayFullworld replays one pre-captured full-world (no dedup)
// trace: capture does nothing in the timed pass and the
// engine's O(world × ops) loop does everything. Five variants rotate
// because they use the same engine differently —
// chained dispatch (learned, oracle), per-op dispatch under an
// observer (breakdown), congestion retunes, repeated wedge runs
// (faults) — so a gain for the plain path that taxes the others shows.
// The seed draws the variant order, the FLOPs values and, inside fixed
// pipeline stages, the fault plan's victims and straggler.
type replayFullworld struct {
	cfg     config
	cluster maya.Cluster
	recipe  maya.MegatronConfig
	w       maya.Workload

	pred     *maya.Predictor
	tr       *maya.Trace
	variants []replayVariant
	order    []int     // op → variant
	flops    []float64 // op → model FLOPs
}

// The timed trace is GPT-3 1.3B, TP2×PP2×DP2 on one H100 node: a full
// world of 8 ranks, 26 576 ops, 4 MB of them. It is not the ISSUE's
// GPT-3 18.4B at 64 ranks (352 k ops, 56 MB) because every replay of
// that trace streams through the last-level cache the host's tenants
// share, and all its timings move together by 30–70 % for minutes at a
// time, whatever this process does; traces of 11 and 14 MB still moved
// with it, this one by 7 % (README, "Host effects"). The 64- and
// 256-rank replays are engine rungs of the traced run.
const replayWorld = 8

func timedReplayRecipe() maya.MegatronConfig {
	return maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: replayWorld, GlobalBatch: 128,
		TP: 2, PP: 2, MicroBatches: 2, ActRecompute: true,
	}
}

// replayRecipe is the recipe of the engine rungs: GPT-3 18.4B,
// TP8×PP4, data-parallel over the rest of the world.
func replayRecipe(world, microBatches int) maya.MegatronConfig {
	return maya.MegatronConfig{
		Model: maya.GPT3_18_4B(), NGPUs: world, GlobalBatch: 128,
		TP: 8, PP: 4, MicroBatches: microBatches, ActRecompute: true,
	}
}

func newReplay(cfg config) (*replayFullworld, error) {
	w := &replayFullworld{cfg: cfg, cluster: maya.DGXH100(replayWorld / 8), recipe: timedReplayRecipe()}
	var err error
	if w.w, err = maya.NewMegatron(w.recipe); err != nil {
		return nil, err
	}
	rng := prand.New(prand.HashInts(cfg.seed, 0x4e91a7))
	// One cycle, by variant in build's order: two learned, one oracle,
	// one congestion, four breakdown, two fault replays. Sorted by cost
	// that is learned 0–20 %, congestion –30, breakdown –70, oracle –80,
	// faults –100: p50 is the middle of the breakdown replays and p90
	// of the fault ones. In equal shares p50 sat in a band a fifth wide
	// between neighbours a quarter cheaper and dearer, and whenever the
	// host slowed for part of a run it crossed into them.
	counts := []int{2, 1, 1, 4, 2}
	if cfg.tiny {
		counts = []int{1, 1, 1, 1, 1}
	}
	var cycle []int
	for v, n := range counts {
		for ; n > 0; n-- {
			cycle = append(cycle, v)
		}
	}
	base := w.recipe.Model.TrainFLOPsPerIter(w.recipe.GlobalBatch)
	for _, i := range rng.Perm(len(cycle)) {
		w.order = append(w.order, cycle[i])
		w.flops = append(w.flops, base*(1+0.01*rng.Float64()))
	}
	return w, nil
}

// faultPlan draws the seeded scenario: one straggler clause, two
// fail-stops, checkpoints. What a scenario costs to evaluate depends
// on which pipeline stage straggles and which stages die, so those are
// fixed (the first stage straggles, the second and the last each lose
// a rank) and the seed picks the rank inside each stage, where tensor-
// and data-parallel peers are interchangeable. With two stages both
// failures fall in the last one, on different ranks.
func faultPlan(rng *prand.SplitMix64, recipe maya.MegatronConfig, iter time.Duration) *maya.FaultPlan {
	stage := recipe.NGPUs / recipe.PP
	first, second := rng.Intn(stage), rng.Intn(stage)
	if recipe.PP == 2 && second == first {
		second = (first + 1) % stage
	}
	return &maya.FaultPlan{
		Seed:            rng.Uint64(),
		CheckpointEvery: 4,
		CheckpointCost:  iter / 20,
		Detect:          iter / 2,
		Restore:         iter / 4,
		Iterations:      40,
		Stragglers:      []maya.FaultStraggler{{Ranks: []int{rng.Intn(stage)}, Factor: 1.3}},
		Failures: []maya.FaultStop{
			{Rank: stage + first, At: 5*iter + iter/3},
			{Rank: (recipe.PP-1)*stage + second, At: 21*iter + iter/2},
		},
	}
}

func (w *replayFullworld) build(ctx context.Context) (time.Duration, error) {
	pred, err := maya.NewPredictor(w.cluster, maya.ProfileLLM,
		maya.WithoutDedup(), maya.WithNetSim(), maya.WithEstimatorCache(maya.NewEstimatorCache()))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := pred.Warm(ctx); err != nil {
		return 0, err
	}
	train := time.Since(t0)
	tr, err := pred.Capture(ctx, w.w)
	if err != nil {
		return 0, err
	}
	if tr.OOM() || tr.UniqueWorkers() != w.recipe.NGPUs {
		return 0, fmt.Errorf("full-world capture: oom %t, %d of %d workers", tr.OOM(), tr.UniqueWorkers(), w.recipe.NGPUs)
	}
	base, err := pred.Simulate(ctx, tr)
	if err != nil {
		return 0, err
	}
	// A fresh generator per build: every repetition of the set-up
	// draws the same plan.
	plan := faultPlan(prand.New(prand.HashInts(w.cfg.seed, 0xfa17)), w.recipe, base.IterTime)
	w.pred, w.tr = pred, tr
	w.variants = []replayVariant{
		{"learned", nil},
		{"oracle", []maya.PredictOption{maya.WithOracleAnnotation()}},
		{"congestion", []maya.PredictOption{maya.WithCongestion()}},
		{"breakdown", []maya.PredictOption{maya.WithStallBreakdown()}},
		{"faults", []maya.PredictOption{maya.WithFaults(plan)}},
	}
	return train, nil
}

func (w *replayFullworld) close()          {}
func (w *replayFullworld) beginTimed()     {}
func (w *replayFullworld) warmCycles() int { return 1 }
func (w *replayFullworld) numOps() int     { return len(w.order) }
func (w *replayFullworld) callers() int    { return 1 }

func (w *replayFullworld) simulate(ctx context.Context, i int) (*maya.Report, error) {
	v := w.variants[w.order[i]]
	opts := append([]maya.PredictOption{maya.WithModelFLOPs(w.flops[i])}, v.opts...)
	rep, err := w.pred.Simulate(ctx, w.tr, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.name, err)
	}
	return rep, nil
}

func (w *replayFullworld) do(ctx context.Context, i int, tr *tracer, parent, opID int) (opOutcome, error) {
	v := w.variants[w.order[i]]
	id := tr.start("simulate."+v.name, parent, opID)
	rep, err := w.simulate(ctx, i)
	tr.end(id)
	if err != nil {
		return opOutcome{}, err
	}
	return opOutcome{hash: hashReport(rep), class: v.name, stages: rep.Stages}, nil
}

func (w *replayFullworld) check(ctx context.Context) ([]uint64, float64, error) {
	refs := make([]uint64, len(w.order))
	var learned *maya.Report
	for i := range w.order {
		rep, err := w.simulate(ctx, i)
		if err != nil {
			return nil, 0, err
		}
		refs[i] = hashReport(rep)
		v := w.variants[w.order[i]]
		switch {
		case v.name == "learned":
			learned = rep
		case v.name == "faults" && (rep.Recovery == nil || len(rep.Recovery.Failures) != 2):
			return nil, 0, fmt.Errorf("faults variant: the recovery report does not carry the plan's two failures")
		case v.name == "breakdown" && rep.Stalls == nil:
			return nil, 0, fmt.Errorf("breakdown variant: no stall profile")
		}
	}
	actual, err := w.pred.Simulate(ctx, w.tr, maya.WithPhysicalReplay())
	if err != nil {
		return nil, 0, err
	}
	predErr := errPct(learned.IterTime, actual.IterTime)
	if predErr > predErrCeilingPct {
		return nil, 0, fmt.Errorf("prediction error %.2f%% is above the %d%% ceiling", predErr, predErrCeilingPct)
	}
	return refs, predErr, nil
}

// simFixture is a captured job with its learned annotations, the
// input of the engine rungs.
type simFixture struct {
	capt  *core.Capture
	suite *estimator.Suite // netsim view
	model *netsim.Model
	plan  *estimator.EstimatePlan
	ops   int
}

func newSimFixture(ctx context.Context, world, microBatches int, noDedup bool) (*simFixture, error) {
	cluster := maya.DGXH100(world / 8)
	wl, err := maya.NewMegatron(replayRecipe(world, microBatches))
	if err != nil {
		return nil, err
	}
	base, _, err := core.NewSuiteCache().SuiteFor(ctx, cluster, core.DefaultOracle(cluster), maya.ProfileLLM)
	if err != nil {
		return nil, err
	}
	f := &simFixture{model: netsim.New(cluster)}
	f.suite = base.WithCollectiveEstimator(f.model)
	pipe := &core.Pipeline{Cluster: cluster, Opts: core.Options{SelectiveLaunch: true, NoDedup: noDedup}}
	if f.capt, err = pipe.Capture(ctx, wl); err != nil {
		return nil, err
	}
	if f.capt.OOM {
		return nil, fmt.Errorf("fixture of %d ranks is out of memory", world)
	}
	if f.plan, err = f.suite.BuildEstimatePlan(ctx, f.capt.Job, f.capt.Comms, f.capt.CommSizes); err != nil {
		return nil, err
	}
	for _, wk := range f.capt.Job.Workers {
		f.ops += len(wk.Ops)
	}
	return f, nil
}

// run replays the fixture once through the pooled engine.
func (f *simFixture) run(ctx context.Context, o sim.Options) (*sim.Report, time.Duration, error) {
	ann := trace.AcquireAnnotations(f.capt.Job)
	if ann == nil || !f.plan.Fill(ann) {
		return nil, 0, fmt.Errorf("fixture overlay does not fit")
	}
	defer ann.Release()
	o.Participants, o.Annotations = f.capt.Participants, ann
	t0 := time.Now()
	rep, err := sim.RunPooled(ctx, f.capt.Job, o)
	return rep, time.Since(t0), err
}

// medianRun is the median wall-clock of n plain replays, in ms.
func (f *simFixture) medianRun(ctx context.Context, n int) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		_, d, err := f.run(ctx, sim.Options{})
		if err != nil {
			return 0, err
		}
		v = append(v, ms(d))
	}
	return median(v), nil
}

func (w *replayFullworld) layers(ctx context.Context, m metrics, tr *tracer) error {
	reps, world, microBatches := 5, 64, 16
	if w.cfg.tiny {
		reps, world, microBatches = 2, 32, 4
	}
	// The dedup'd trace every cached prediction and search trial
	// simulates: one worker per pipeline stage.
	w4, err := newSimFixture(ctx, world, microBatches, false)
	if err != nil {
		return err
	}
	if len(w4.capt.Job.Workers) != 4 {
		return fmt.Errorf("dedup'd fixture has %d workers, want 4", len(w4.capt.Job.Workers))
	}
	v, err := w4.medianRun(ctx, reps)
	if err != nil {
		return err
	}
	m.set("sim.run_ms_w4", v)

	full, err := newSimFixture(ctx, world, microBatches, true)
	if err != nil {
		return err
	}
	if _, err := full.medianRun(ctx, 1); err != nil { // grow the pooled engine once
		return err
	}
	before := readUsage(true)
	if v, err = full.medianRun(ctx, reps); err != nil {
		return err
	}
	after := readUsage(true)
	m.set("sim.run_ms_w64", v)
	m.set("sim.mops_per_s", float64(full.ops)/(v/1e3)/1e6)
	m.set("sim.alloc_kb_per_run", float64(after.totalAlloc-before.totalAlloc)/1e3/float64(reps))

	if !w.cfg.tiny {
		// One-shot scale point: 256 ranks, one replay.
		big, err := newSimFixture(ctx, 256, 16, true)
		if err != nil {
			return err
		}
		if v, err = big.medianRun(ctx, 1); err != nil {
			return err
		}
		m.set("sim.run_ms_w256", v)
	}

	// netsim: one collective-algorithm selection per distinct call of
	// the full-world job.
	var plans int
	t0 := time.Now()
	for _, wk := range full.capt.Job.Workers {
		for i := range wk.Ops {
			if c := wk.Ops[i].Coll; c != nil && c.Seq >= 0 {
				ranks := trace.ExpandRanks(full.capt.Comms[c.CommID], full.capt.CommSizes[c.CommID], wk.World)
				full.model.Plan(c.Op, c.Bytes, ranks, c.NRanks)
				plans++
			}
		}
	}
	m.set("netsim.plan_us", float64(time.Since(t0).Microseconds())/float64(plans))

	// Engine variants through core.Pipeline on the full-world capture.
	// The plain Simulate first resolves the estimate plan, so the first
	// congestion Simulate pays only the demand-table build on top of a
	// warm one.
	timeSim := func(opts core.Options) (time.Duration, error) {
		pipe := &core.Pipeline{Cluster: maya.DGXH100(world / 8), Suite: full.suite, Opts: opts}
		t0 := time.Now()
		_, err := pipe.Simulate(ctx, full.capt, 0, maya.BF16)
		return time.Since(t0), err
	}
	if _, err := timeSim(core.Options{}); err != nil {
		return err
	}
	congFirst, err := timeSim(core.Options{Congestion: full.model})
	if err != nil {
		return err
	}
	congWarm, err := timeSim(core.Options{Congestion: full.model})
	if err != nil {
		return err
	}
	observer, err := timeSim(core.Options{Breakdown: true})
	if err != nil {
		return err
	}
	m.set("netsim.congestion_build_ms", ms(congFirst-congWarm))
	m.set("sim.congestion_ms", ms(congWarm))
	m.set("sim.observer_ms", ms(observer))

	oracle := core.DefaultOracle(maya.DGXH100(world / 8))
	ann := trace.AcquireAnnotations(full.capt.Job)
	t0 = time.Now()
	err = oracle.AnnotateInto(ctx, full.capt.Job, full.capt.Comms, full.capt.CommSizes, ann)
	m.set("sim.oracle_annotate_ms", ms(time.Since(t0)))
	ann.Release()
	if err != nil {
		return err
	}

	// faults: the scenario walk with a counting runner.
	clean, _, err := full.run(ctx, sim.Options{})
	if err != nil {
		return err
	}
	plan := faultPlan(prand.New(prand.HashInts(w.cfg.seed, 0xfa17)), replayRecipe(world, microBatches), clean.IterTime())
	inj, err := plan.Injection(full.capt.Job)
	if err != nil {
		return err
	}
	perturbed, _, err := full.run(ctx, sim.Options{Faults: inj})
	if err != nil {
		return err
	}
	runs := 0
	runner := func(rctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error) {
		runs++
		rep, _, err := full.run(rctx, sim.Options{Faults: inj, Observer: obs})
		return rep, err
	}
	t0 = time.Now()
	if _, err := faults.Evaluate(ctx, plan, full.capt.Job, perturbed, runner); err != nil {
		return err
	}
	m.set("faults.evaluate_ms", ms(time.Since(t0)))
	m.set("faults.engine_runs_per_eval", float64(runs))
	return nil
}
