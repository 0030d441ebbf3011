package maya_test

// Micro-benchmarks of the core engines (emulation, simulation, forest
// inference, annotation, capture, batch, search) for a before/after
// row under -benchmem. The end-to-end benchmark is bench/ (see
// bench/README.md); the paper's tables and figures are regenerated by
// `go run ./cmd/maya experiments -exp ID|all`.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/emulator"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/forest"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
	"maya/internal/prand"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/topo"
	"maya/internal/trace"
)

// BenchmarkEmulateMegatronRank measures transparent-emulation
// throughput: one GPT-3 2.7B rank, tp2/pp2, 4 microbatches.
func BenchmarkEmulateMegatronRank(b *testing.B) {
	m, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_2_7B(), NGPUs: 8, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 4,
		ActRecompute: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cluster := hardware.DGXV100(1)
	b.ReportAllocs()
	b.ResetTimer()
	var ops int
	for i := 0; i < b.N; i++ {
		em := emulator.New(emulator.Config{Rank: 0, World: 8, GPU: cluster.Node.GPU, Host: cluster.Host})
		if err := m.Run(0, em); err != nil {
			b.Fatal(err)
		}
		ops = len(em.Trace().Ops)
		em.Release()
	}
	b.ReportMetric(float64(ops), "trace-ops")
}

// simBenchJob builds the 8-worker megatron job the simulator
// micro-benchmarks replay, returning it with its duration overlay and
// its op count.
func simBenchJob(b *testing.B) (*trace.Job, *trace.Annotations, int) {
	b.Helper()
	m, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cluster := hardware.DGXV100(1)
	var workers []*trace.Worker
	for r := 0; r < 8; r++ {
		em := emulator.New(emulator.Config{Rank: r, World: 8, GPU: cluster.Node.GPU, Host: cluster.Host})
		if err := m.Run(r, em); err != nil {
			b.Fatal(err)
		}
		workers = append(workers, em.Trace())
	}
	job, err := trace.NewJob(workers)
	if err != nil {
		b.Fatal(err)
	}
	// Constant annotation is enough for a throughput benchmark.
	ann := trace.NewAnnotations(job)
	totalOps := 0
	for wi, w := range job.Workers {
		for i := range w.Ops {
			if w.Ops[i].IsDeviceWork() {
				ann.Set(wi, i, 20*time.Microsecond)
			}
			totalOps++
		}
	}
	return job, ann, totalOps
}

// BenchmarkSimRun measures discrete-event simulation throughput on an
// annotated 8-worker job, one fresh engine per run. The typed-event
// loop keeps allocs/op in the hundreds where the closure-heap engine
// paid two heap allocations per scheduled event (~62k on this
// fixture).
func BenchmarkSimRun(b *testing.B) {
	job, ann, totalOps := simBenchJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), job, sim.Options{Annotations: ann}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(totalOps)/float64(b.Elapsed().Seconds()/float64(b.N))/1e6, "Mops/s")
}

// BenchmarkReplay measures one replay through core.Pipeline of an
// oracle-priced 8-rank GPT-3 1.3B capture without dedup, per engine
// route: plain prediction, congestion against the netsim model,
// prediction with a stall breakdown, and physical mode. Each route's
// first replay, which builds the capture's plan, index and congestion
// demands, runs before the timer starts.
func BenchmarkReplay(b *testing.B) {
	ctx := context.Background()
	cluster := hardware.DGXH100(1)
	m, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 128, TP: 2, PP: 2, MicroBatches: 2, ActRecompute: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := (&core.Pipeline{Cluster: cluster, Opts: core.Options{NoDedup: true}}).Capture(ctx, m)
	if err != nil {
		b.Fatal(err)
	}
	c.Keep()
	oracle := core.DefaultOracle(cluster)
	fabric, err := topo.ByName("", cluster)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name     string
		opts     core.Options
		physical bool
	}{
		{"plain", core.Options{Oracle: oracle}, false},
		{"congestion", core.Options{Oracle: oracle, Congestion: netsim.NewWithTopology(cluster, fabric)}, false},
		{"breakdown", core.Options{Oracle: oracle, Breakdown: true}, false},
		{"physical", core.Options{}, true},
	} {
		pipe := &core.Pipeline{Cluster: cluster, Opts: v.opts}
		replay := func() error {
			var err error
			if v.physical {
				_, err = pipe.Measure(ctx, c, oracle, 0, hardware.BF16)
			} else {
				_, err = pipe.Simulate(ctx, c, 0, hardware.BF16)
			}
			return err
		}
		b.Run(v.name, func(b *testing.B) {
			if err := replay(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := replay(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultsRecovery measures the fault-scenario walk on the
// annotated 8-worker job: a seeded MTBF failure process over a
// 100-iteration schedule, one wedge simulation per failure to price
// survivor idling, checkpoint rewind and redo priced analytically.
func BenchmarkFaultsRecovery(b *testing.B) {
	job, ann, _ := simBenchJob(b)
	run := func(ctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error) {
		o := sim.Options{Faults: inj, Observer: obs, Annotations: ann}
		return sim.RunPooled(ctx, job, o)
	}
	perturbed, err := run(context.Background(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	iter := perturbed.IterTime()
	plan := &faults.Plan{
		Seed:            7,
		CheckpointEvery: 4,
		CheckpointCost:  iter / 20,
		MTBF:            20 * iter,
		Detect:          iter / 2,
		Restore:         iter / 4,
		Iterations:      100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var failures int
	for i := 0; i < b.N; i++ {
		rec, err := faults.Evaluate(context.Background(), plan, job, perturbed, run)
		if err != nil {
			b.Fatal(err)
		}
		failures = len(rec.Failures)
	}
	b.ReportMetric(float64(failures), "failures")
}

// BenchmarkTrainSuite measures full estimator-suite training on the
// synthetic LLM profile: per-kernel forests (column-presorted, grown
// through the bounded worker pool) plus the collective model. This is
// the cost a cold EstimatorCache pays per (cluster, profile kind).
func BenchmarkTrainSuite(b *testing.B) {
	cluster := hardware.DGXV100(1)
	oracle := silicon.NewOracle(cluster, 7)
	profile := estimator.SyntheticProfile(oracle, cluster, estimator.ProfileLLM, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimator.TrainSuite(profile, cluster); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateKernel measures one steady-state kernel estimate:
// stack-buffered features plus a flattened-forest walk. The contract
// is 0 allocs/op.
func BenchmarkEstimateKernel(b *testing.B) {
	cluster := hardware.DGXV100(1)
	suite, _, err := core.DefaultSuiteCache().SuiteFor(context.Background(), cluster, core.DefaultOracle(cluster), estimator.ProfileLLM)
	if err != nil {
		b.Fatal(err)
	}
	op := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "cublasGemmEx",
		Dims: []int{1, 4096, 4096, 4096}, FLOPs: 2 * 4096 * 4096 * 4096,
		Bytes: 2 * 3 * 4096 * 4096, DType: "bf16"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.EstimateKernel(&op)
	}
}

// BenchmarkAnnotatePlan measures the capture-attached estimate plan on
// the 8-worker megatron fixture: "build" is the one-time cost of
// resolving it (one annotate walk behind a shape memo), "via-plan" one
// copy of it into a pooled overlay, what bench/'s engine rungs pay
// (product replays read the plan's own overlay in place).
func BenchmarkAnnotatePlan(b *testing.B) {
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	suite, _, err := core.DefaultSuiteCache().SuiteFor(ctx, cluster, core.DefaultOracle(cluster), estimator.ProfileLLM)
	if err != nil {
		b.Fatal(err)
	}
	job, _, _ := simBenchJob(b)

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := suite.BuildEstimatePlan(ctx, job, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-plan", func(b *testing.B) {
		plan, err := suite.BuildEstimatePlan(ctx, job, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ann := trace.AcquireAnnotations(job)
			if !plan.Fill(ann) {
				b.Fatal("plan.Fill rejected the overlay")
			}
			ann.Release()
		}
	})
}

// BenchmarkForestPredict measures kernel-estimator inference.
func BenchmarkForestPredict(b *testing.B) {
	rng := prand.New(1)
	samples := make([]forest.Sample, 2000)
	for i := range samples {
		x := make([]float64, 14)
		for j := range x {
			x[j] = rng.Float64() * 30
		}
		samples[i] = forest.Sample{X: x, Y: x[0] + x[1]}
	}
	fs, err := forest.TrainForests([]forest.TrainJob{{Samples: samples, Opts: forest.Options{Seed: 1, Trees: 16, MaxDepth: 12}}}, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, probe := fs[0], samples[17].X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe)
	}
}

// BenchmarkEndToEndPrediction is the headline number: full pipeline
// latency for one configuration (the unit of work in a search).
func BenchmarkEndToEndPrediction(b *testing.B) {
	cluster := hardware.DGXV100(1)
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM)
	if err != nil {
		b.Fatal(err)
	}
	model := models.GPT3_2_7B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 8, GlobalBatch: 64, TP: 2, PP: 2, MicroBatches: 8,
		ActRecompute: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	flops := model.TrainFLOPsPerIter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := pred.Predict(context.Background(), w,
			maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
		if err != nil {
			b.Fatal(err)
		}
		if rep.OOM {
			b.Fatal("unexpected OOM")
		}
	}
}

// BenchmarkCaptureReuse is the capture-once/simulate-many story: N
// evaluations of one workload as N full Predict calls versus one
// Capture plus N Simulate calls. The reuse path pays emulation and
// collation once, so it skips N-1 copies of the expensive front half
// (ground-truth annotation keeps the comparison free of estimator
// training).
func BenchmarkCaptureReuse(b *testing.B) {
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM)
	if err != nil {
		b.Fatal(err)
	}
	model := models.GPT3_2_7B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 8, GlobalBatch: 64, TP: 2, PP: 2, MicroBatches: 8,
		ActRecompute: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const simsPerCapture = 4
	flops := model.TrainFLOPsPerIter(64)
	opts := []maya.PredictOption{
		maya.WithOracleAnnotation(), maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16),
	}

	b.Run("repeated-predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < simsPerCapture; j++ {
				if _, err := pred.Predict(ctx, w, opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("capture-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := pred.Capture(ctx, w)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < simsPerCapture; j++ {
				if _, err := pred.Simulate(ctx, tr, opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// The Simulate stage in isolation: durations come from the
	// capture's estimate plan, read in place, and the engine from the
	// process pool, so the per-simulation cost no longer includes
	// deep-copying the captured job.
	b.Run("simulate-only", func(b *testing.B) {
		tr, err := pred.Capture(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pred.Simulate(ctx, tr, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCaptureHyperscale measures the capture (emulate + collate)
// half of a prediction on a 256-rank megatron job under dynamic
// deduplication: the full probe emulates every rank once and dedup
// keeps one worker per pipeline stage.
func BenchmarkCaptureHyperscale(b *testing.B) {
	m, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 256, GlobalBatch: 128,
		TP: 2, PP: 2, MicroBatches: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	pipe := &core.Pipeline{Cluster: hardware.DGXV100(32)}
	b.Run("full-probe", func(b *testing.B) {
		b.ReportAllocs()
		var emuls int
		for i := 0; i < b.N; i++ {
			c, err := pipe.Capture(context.Background(), m)
			if err != nil {
				b.Fatal(err)
			}
			if c.OOM {
				b.Fatal("unexpected OOM")
			}
			emuls = c.RankEmulations
		}
		b.ReportMetric(float64(emuls), "rank-emulations")
	})
}

// BenchmarkPredictBatch contrasts N sequential Predict calls with one
// PredictBatch over the same N configurations, both on a warm suite
// cache: the batch path's bounded worker pool is the win a scenario
// sweep sees.
func BenchmarkPredictBatch(b *testing.B) {
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM)
	if err != nil {
		b.Fatal(err)
	}
	model := models.GPT3_1_3B()
	flops := model.TrainFLOPsPerIter(32)
	var reqs []maya.Request
	for _, cfg := range []framework.MegatronConfig{
		{TP: 1, PP: 2, MicroBatches: 2},
		{TP: 2, PP: 1, MicroBatches: 2},
		{TP: 2, PP: 2, MicroBatches: 2},
		{TP: 2, PP: 2, MicroBatches: 4},
		{TP: 4, PP: 2, MicroBatches: 2},
		{TP: 2, PP: 4, MicroBatches: 4},
		{TP: 4, PP: 1, MicroBatches: 2},
		{TP: 2, PP: 2, MicroBatches: 8, ActRecompute: true},
	} {
		cfg.Model, cfg.NGPUs, cfg.GlobalBatch = model, 8, 32
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, maya.Request{Workload: w, Options: []maya.PredictOption{
			maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16),
		}})
	}
	// Warm the suite so both paths measure pure evaluation.
	if _, err := pred.Predict(ctx, reqs[0].Workload, reqs[0].Options...); err != nil {
		b.Fatal(err)
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := pred.Predict(ctx, r.Workload, r.Options...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := pred.PredictBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkSearchThroughput measures recipe-search throughput
// (trials/sec) at Parallel 1/2/4/8 on the fig16 setups, with the
// capture cache warmed first so the number isolates the per-trial
// search cost: verdict fast path, domination abort, worker-affine
// simulation. CI archives it as BENCH_search.json.
func BenchmarkSearchThroughput(b *testing.B) {
	ctx := context.Background()
	setups := []struct {
		name    string
		cluster hardware.Cluster
		model   models.Transformer
		batch   int
	}{
		{"GPT3-2.7B/8xV100", hardware.DGXV100(1), models.GPT3_2_7B(), 64},
		{"GPT3-18.4B/64xH100", hardware.DGXH100(8), models.GPT3_18_4B(), 128},
	}
	const budget = 128
	for _, s := range setups {
		pred, err := maya.NewPredictor(s.cluster, maya.ProfileLLM,
			maya.WithCaptureCache(maya.NewCaptureCache(2048)))
		if err != nil {
			b.Fatal(err)
		}
		problem := maya.SearchProblem{Model: s.model, GlobalBatch: s.batch}
		base := maya.SearchOptions{Algorithm: "cma", Budget: budget, Seed: 7, EarlyStopWindow: -1}
		run := func(name string, opts maya.SearchOptions) {
			// Warm the estimator suite and the capture cache on this
			// variant's own trajectory: CMA-ES is deterministic at fixed
			// seed (and independent of Parallel), so the timed runs
			// revisit exactly the topologies the warm run captures.
			if _, err := pred.FindRecipe(ctx, problem, opts); err != nil {
				b.Fatal(err)
			}
			b.Run(name, func(b *testing.B) {
				trials := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := pred.FindRecipe(ctx, problem, opts)
					if err != nil {
						b.Fatal(err)
					}
					trials += len(out.History)
				}
				b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
			})
		}
		for _, par := range []int{1, 2, 4, 8} {
			opts := base
			opts.Parallel = par
			run(fmt.Sprintf("%s/p%d", s.name, par), opts)
		}
		// Ablation: domination abort disabled, so every non-OOM trial
		// runs to the end. It takes a different trajectory — the abort
		// feeds the optimizer the bound, not the full time — so its
		// trials/s is not the default's cost minus the abort's saving.
		ablated := base
		ablated.Parallel = 8
		ablated.DominationSlack = -1
		run(fmt.Sprintf("%s/ablated-p8", s.name), ablated)
	}
}
