package main

import (
	"context"
	"fmt"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/prand"
	"maya/internal/trace"
)

// coldRecipe is one entry of predict-cold's fixed recipe pool.
type coldRecipe struct {
	class   string // latency class: the cluster, or "oom"
	cluster int    // index into predictCold.clusters
	name    string
	w       maya.Workload
	flops   float64
	dtype   maya.DType
}

// coldCluster is one target cluster with its predictor and, for the
// ladder, the suite that predictor resolves to.
type coldCluster struct {
	cluster maya.Cluster
	kind    maya.ProfileKind
	pred    *maya.Predictor
	suite   *estimator.Suite // trained on first ladder use
}

// predictCold is the per-trial stack runtime of the paper: one caller,
// Predictor.Predict with no capture cache, over a fixed pool of
// recipes on three clusters. The seed permutes the pool and draws the
// FLOPs value of every op.
type predictCold struct {
	cfg      config
	clusters []*coldCluster
	pool     []coldRecipe
	order    []int     // op → pool index
	flops    []float64 // op → model FLOPs handed to Predict

	// Summed by decompose over the traced pass (one caller).
	ladders    int
	sum        ladderRun
	rankEmuls  int
	uniqueFrac float64
}

func newPredictCold(cfg config) (*predictCold, error) {
	w := &predictCold{cfg: cfg, clusters: []*coldCluster{
		{cluster: maya.DGXV100(1), kind: maya.ProfileLLM},
		{cluster: maya.DGXH100(8), kind: maya.ProfileLLM},
		{cluster: maya.A40Node(), kind: maya.ProfileVision},
	}}
	mega := func(class string, cl int, m maya.Transformer, batch, tp, pp, mb int, recompute, seqPar bool) error {
		wl, err := maya.NewMegatron(maya.MegatronConfig{
			Model: m, NGPUs: w.clusters[cl].cluster.TotalGPUs(), GlobalBatch: batch,
			TP: tp, PP: pp, MicroBatches: mb, ActRecompute: recompute, SeqParallel: seqPar,
		})
		if err != nil {
			return fmt.Errorf("recipe %s tp%d pp%d mb%d: %w", m.Name, tp, pp, mb, err)
		}
		w.pool = append(w.pool, coldRecipe{
			class: class, cluster: cl, w: wl, flops: m.TrainFLOPsPerIter(batch), dtype: maya.BF16,
			name: fmt.Sprintf("%s@%s tp%d pp%d mb%d", m.Name, w.clusters[cl].cluster.Name, tp, pp, mb),
		})
		return nil
	}
	vision := func(m maya.CNN, batch int, compile bool) error {
		wl, err := maya.NewDataParallel(maya.DataParallelConfig{
			CNN: &m, NGPUs: 8, GlobalBatch: batch, Strategy: maya.DDP, Compile: compile, DType: "fp16",
		})
		if err != nil {
			return fmt.Errorf("recipe %s batch %d: %w", m.Name, batch, err)
		}
		w.pool = append(w.pool, coldRecipe{
			class: "a40", cluster: 2, w: wl, flops: m.TrainFLOPsPerIter(batch), dtype: maya.FP16,
			name: fmt.Sprintf("%s@8xA40 batch %d compile %t", m.Name, batch, compile),
		})
		return nil
	}
	small, large := maya.GPT3_2_7B(), maya.GPT3_18_4B()
	var errs []error
	add := func(err error) { errs = append(errs, err) }
	// GPT-3 2.7B on one DGX-V100 node (Fig. 7's small setup).
	add(mega("v100", 0, small, 64, 2, 2, 8, true, false))
	if !cfg.tiny {
		add(mega("v100", 0, small, 64, 4, 2, 8, true, false))
		add(mega("v100", 0, small, 64, 2, 4, 8, true, false))
		add(mega("v100", 0, small, 64, 1, 4, 16, true, false))
		add(mega("v100", 0, small, 64, 4, 2, 4, true, true))
	}
	// GPT-3 18.4B on 64 H100s (the search problem's cluster).
	add(mega("h100", 1, large, 128, 8, 4, 16, true, false))
	if !cfg.tiny {
		add(mega("h100", 1, large, 128, 8, 2, 8, true, false))
		add(mega("h100", 1, large, 128, 4, 4, 16, true, true))
		add(mega("h100", 1, large, 128, 8, 8, 16, true, false))
		add(mega("h100", 1, large, 128, 4, 8, 32, true, false))
	}
	// Out-of-memory verdicts: the answer is the capture's, no simulation.
	add(mega("oom", 0, small, 64, 8, 1, 4, false, false))
	if !cfg.tiny {
		add(mega("oom", 1, large, 128, 1, 1, 2, false, false))
	}
	// Data-parallel vision on the A40 node (Fig. 10). Three of them make
	// the pool 15 recipes: with every recipe asked equally often, p50 is
	// the middle of the 8th cheapest recipe's ops and p90 of the 14th's.
	// An even pool puts p50 on the border between two recipes, and it
	// jumps between them, a tenth apart, from run to run.
	add(vision(maya.ResNet152(), 256, false))
	if !cfg.tiny {
		add(vision(maya.ResNet152(), 512, true))
		add(vision(maya.ResNet152(), 128, false))
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rng := prand.New(prand.HashInts(cfg.seed, 0xc01d))
	w.order = rng.Perm(len(w.pool))
	w.flops = make([]float64, len(w.order))
	for i, pi := range w.order {
		// FLOPs only scale MFU; drawing them per op keeps the answers
		// seed-dependent without changing the work.
		w.flops[i] = w.pool[pi].flops * (1 + 0.01*rng.Float64())
	}
	return w, nil
}

func (w *predictCold) build(ctx context.Context) (time.Duration, error) {
	var train time.Duration
	for _, c := range w.clusters {
		pred, err := maya.NewPredictor(c.cluster, c.kind, maya.WithEstimatorCache(maya.NewEstimatorCache()))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := pred.Warm(ctx); err != nil {
			return 0, err
		}
		train += time.Since(t0)
		c.pred = pred
	}
	return train, nil
}

func (w *predictCold) close()          {}
func (w *predictCold) beginTimed()     {}
func (w *predictCold) warmCycles() int { return 1 }
func (w *predictCold) numOps() int     { return len(w.order) }
func (w *predictCold) callers() int    { return 1 }

func (w *predictCold) opts(i int) []maya.PredictOption {
	return []maya.PredictOption{maya.WithModelFLOPs(w.flops[i]), maya.WithDType(w.pool[w.order[i]].dtype)}
}

func (w *predictCold) do(ctx context.Context, i int, tr *tracer, parent, opID int) (opOutcome, error) {
	r := &w.pool[w.order[i]]
	id := tr.start("predict", parent, opID)
	rep, err := w.clusters[r.cluster].pred.Predict(ctx, r.w, w.opts(i)...)
	tr.end(id)
	if err != nil {
		return opOutcome{}, fmt.Errorf("%s: %w", r.name, err)
	}
	return opOutcome{hash: hashReport(rep), class: r.class, stages: rep.Stages}, nil
}

// ladderSuite trains (once) the suite the cluster's predictor
// resolves to: same oracle, same profile, deterministic training.
func (w *predictCold) ladderSuite(ctx context.Context, c *coldCluster) (*estimator.Suite, error) {
	if c.suite == nil {
		suite, _, err := core.NewSuiteCache().SuiteFor(ctx, c.cluster, core.DefaultOracle(c.cluster), c.kind)
		if err != nil {
			return nil, err
		}
		c.suite = suite
	}
	return c.suite, nil
}

func (w *predictCold) check(ctx context.Context) ([]uint64, float64, error) {
	refs := make([]uint64, len(w.order))
	var errSum float64
	var nErr int
	for i, pi := range w.order {
		r := &w.pool[pi]
		c := w.clusters[r.cluster]
		rep, err := c.pred.Predict(ctx, r.w, w.opts(i)...)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}
		refs[i] = hashReport(rep)
		if rep.OOM != (r.class == "oom") {
			return nil, 0, fmt.Errorf("%s: OOM verdict %t, the pool expects %t", r.name, rep.OOM, r.class == "oom")
		}

		// Predict ≡ Capture + Simulate ≡ the layer-by-layer ladder.
		tr, err := c.pred.Capture(ctx, r.w)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: capture: %w", r.name, err)
		}
		staged, err := c.pred.Simulate(ctx, tr, w.opts(i)...)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: simulate: %w", r.name, err)
		}
		if h := hashReport(staged); h != refs[i] {
			return nil, 0, fmt.Errorf("%s: Capture+Simulate answers %016x, Predict %016x", r.name, h, refs[i])
		}
		suite, err := w.ladderSuite(ctx, c)
		if err != nil {
			return nil, 0, err
		}
		l, err := runLadder(ctx, c.cluster, suite, r.w, nil, 0, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}
		if err := l.matches(rep); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}

		if !rep.OOM {
			actual, err := c.pred.MeasureActual(ctx, r.w)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: measuring: %w", r.name, err)
			}
			errSum += errPct(rep.IterTime, actual.IterTime)
			nErr++
		}
	}
	predErr := errSum / float64(nErr)
	if predErr > predErrCeilingPct {
		return nil, 0, fmt.Errorf("mean prediction error %.2f%% is above the %d%% ceiling", predErr, predErrCeilingPct)
	}
	return refs, predErr, nil
}

// decompose re-executes op i layer by layer beside the Predict it
// decomposes, and through core.Pipeline's two stages.
func (w *predictCold) decompose(ctx context.Context, i int, tr *tracer, opID int) error {
	r := &w.pool[w.order[i]]
	c := w.clusters[r.cluster]
	suite, err := w.ladderSuite(ctx, c)
	if err != nil {
		return err
	}
	root := tr.start("ladder", 0, opID)
	l, err := runLadder(ctx, c.cluster, suite, r.w, tr, root, opID)
	tr.end(root)
	if err != nil {
		return err
	}

	pipe := &core.Pipeline{Cluster: c.cluster, Suite: suite, Opts: core.Options{SelectiveLaunch: true}}
	id := tr.start("core.capture", 0, opID)
	capt, err := pipe.Capture(ctx, r.w)
	tr.end(id)
	if err != nil {
		return err
	}
	var first *core.Report
	for _, name := range []string{"core.simulate_first", "core.simulate_warm"} {
		id := tr.start(name, 0, opID)
		rep, err := pipe.Simulate(ctx, capt, w.flops[i], r.dtype)
		tr.end(id)
		if err != nil {
			return err
		}
		if first == nil {
			first = rep
		} else if hashReport(rep) != hashReport(first) {
			return fmt.Errorf("%s: warm Simulate differs from the first", r.name)
		}
	}
	if err := l.matches(first); err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}

	w.ladders++
	w.sum.ranks += l.ranks
	w.sum.traceOps += l.traceOps
	w.sum.emulateAlloc += l.emulateAlloc
	w.sum.emulate += l.emulate
	w.sum.collate += l.collate
	w.sum.planBuild += l.planBuild
	w.sum.planFill += l.planFill
	w.sum.simRun += l.simRun
	w.rankEmuls += capt.RankEmulations
	w.uniqueFrac += float64(capt.UniqueWorkers) / float64(capt.TotalWorkers)
	return nil
}

func (w *predictCold) layers(ctx context.Context, m metrics, tr *tracer) error {
	if w.ladders == 0 {
		return fmt.Errorf("the traced pass decomposed no op")
	}
	spans := tr.byName()
	sum, n := w.sum, float64(w.ladders)
	rank := spans["emulate.rank"]
	// Rung means are over every decomposed op, OOM verdicts (which
	// stop after the emulate rung) included, like core.predict_ms.
	m.set("emulator.emulate_ms", ms(sum.emulate)/n)
	m.set("emulator.rank_ms", rank.meanMS())
	m.set("emulator.trace_kops_per_s", float64(sum.traceOps)/rank.total.Seconds()/1e3)
	m.set("emulator.alloc_mb_per_rank", float64(sum.emulateAlloc)/1e6/float64(sum.ranks))
	m.set("core.rank_emulations_per_capture", float64(w.rankEmuls)/n)
	m.set("collator.unique_worker_ratio", w.uniqueFrac/n)
	m.set("collator.collate_ms", ms(sum.collate)/n)
	m.set("estimator.plan_build_ms", ms(sum.planBuild)/n)
	m.set("estimator.plan_fill_us", 1e3*ms(sum.planFill)/n)
	m.set("core.ladder_sim_ms", ms(sum.simRun)/n)
	m.set("core.capture_ms", spans["core.capture"].meanMS())
	m.set("core.simulate_first_ms", spans["core.simulate_first"].meanMS())
	m.set("core.simulate_warm_ms", spans["core.simulate_warm"].meanMS())
	predict := spans["predict"].meanMS()
	m.set("core.predict_ms", predict)
	// What Predict costs beyond the five rungs timed one by one on the
	// same recipes: option handling, report assembly, pool traffic,
	// and whatever the composition adds. Reported, not hidden.
	residual := predict - ms(sum.total())/n
	m.set("core.residual_ms", residual)
	m.set("core.residual_frac", residual/predict)

	// One steady-state kernel estimate: features plus the forest walk,
	// over the kernels of a captured H100 job.
	c := w.clusters[1]
	suite, err := w.ladderSuite(ctx, c)
	if err != nil {
		return err
	}
	pipe := &core.Pipeline{Cluster: c.cluster, Opts: core.Options{SelectiveLaunch: true}}
	var kernels []*trace.Op
	for _, r := range w.pool {
		if r.class != "h100" {
			continue
		}
		capt, err := pipe.Capture(ctx, r.w)
		if err != nil {
			return err
		}
		for _, wk := range capt.Job.Workers {
			for j := range wk.Ops {
				if wk.Ops[j].Kind == trace.KindKernel {
					kernels = append(kernels, &wk.Ops[j])
				}
			}
		}
		break
	}
	if len(kernels) == 0 {
		return fmt.Errorf("no kernel in the captured job")
	}
	const rounds = 3
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, op := range kernels {
			suite.EstimateKernel(op)
		}
	}
	m.set("estimator.kernel_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(kernels)))
	return nil
}
