package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"maya/internal/collator"
	"maya/internal/cuda"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/silicon"
	"maya/internal/workload"
)

func pipelineFor(t *testing.T, cluster hardware.Cluster, opts Options) (*Pipeline, *Pipeline) {
	t.Helper()
	oracle := DefaultOracle(cluster)
	suite, _, err := DefaultSuiteCache().SuiteFor(context.Background(), cluster, oracle, estimator.ProfileLLM)
	if err != nil {
		t.Fatalf("SuiteFor: %v", err)
	}
	p := &Pipeline{Cluster: cluster, Suite: suite, Opts: opts}
	return p, p
}

// predict is Capture then Simulate, the composition maya.Predictor's
// Predict runs.
func predict(ctx context.Context, p *Pipeline, w workload.Workload, flops float64) (*Report, error) {
	c, err := p.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	return p.Simulate(ctx, c, flops, hardware.BF16)
}

// measureActual is Capture then Measure, the composition
// maya.Predictor's MeasureActual runs.
func measureActual(ctx context.Context, p *Pipeline, w workload.Workload, oracle *silicon.Oracle, flops float64) (*Report, error) {
	c, err := p.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	return p.Measure(ctx, c, oracle, flops, hardware.BF16)
}

func megatron(t *testing.T, cfg framework.MegatronConfig) *framework.Megatron {
	t.Helper()
	m, err := framework.NewMegatron(cfg)
	if err != nil {
		t.Fatalf("NewMegatron(%+v): %v", cfg, err)
	}
	return m
}

func relErr(a, b time.Duration) float64 {
	return math.Abs(float64(a-b)) / float64(b)
}

func TestEndToEndPredictionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	oracle := DefaultOracle(cluster)

	configs := []framework.MegatronConfig{
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 1, PP: 2, MicroBatches: 2},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 4, PP: 2, MicroBatches: 2, SeqParallel: true},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 4, ActRecompute: true},
	}
	for _, cfg := range configs {
		m := megatron(t, cfg)
		// Every rank's full trace must agree across workers on each
		// matched collective's payload and group size.
		workers, inits, _, err := p.emulateRanks(context.Background(), m, allRanks(m.World()), nil, true)
		if err != nil {
			t.Fatalf("emulating %s: %v", cfg, err)
		}
		// The inits read in the fan-out give the membership a pass
		// over the traces gives.
		comms, sizes, err := collator.Membership(inits)
		wantComms, wantSizes, wantErr := collator.CommMembership(workers)
		if err != nil || wantErr != nil || !reflect.DeepEqual(comms, wantComms) || !reflect.DeepEqual(sizes, wantSizes) {
			t.Fatalf("%s: membership from inits %v %v %v, from traces %v %v %v", cfg, comms, sizes, err, wantComms, wantSizes, wantErr)
		}
		if _, err := collator.Collate(context.Background(), workers, collator.Options{Validate: true}); err != nil {
			t.Fatalf("Collate(%s): %v", cfg, err)
		}
		flops := cfg.Model.TrainFLOPsPerIter(cfg.GlobalBatch)
		pred, err := predict(context.Background(), p, m, flops)
		if err != nil {
			t.Fatalf("Predict(%s): %v", cfg, err)
		}
		actual, err := measureActual(context.Background(), p, m, oracle, flops)
		if err != nil {
			t.Fatalf("MeasureActual(%s): %v", cfg, err)
		}
		if pred.OOM || actual.OOM {
			t.Fatalf("%s unexpectedly OOM (peak %d)", cfg, pred.PeakMemBytes)
		}
		e := relErr(pred.IterTime, actual.IterTime)
		t.Logf("%s: pred %v actual %v err %.2f%% (mfu %.1f%%)", cfg, pred.IterTime, actual.IterTime, e*100, actual.MFU*100)
		if e > 0.10 {
			t.Errorf("%s: prediction error %.1f%% exceeds 10%%", cfg, e*100)
		}
		if pred.IterTime <= 0 {
			t.Errorf("%s: non-positive iteration time", cfg)
		}
	}
}

func TestOraclePredictionBeatsLearnedOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	oracle := DefaultOracle(cluster)
	pOracle := &Pipeline{Cluster: cluster, Suite: p.Suite, Opts: Options{Oracle: oracle}}

	var e2e, orc float64
	configs := []framework.MegatronConfig{
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 2},
		{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 4, PP: 2, MicroBatches: 2},
	}
	for _, cfg := range configs {
		m := megatron(t, cfg)
		actual, err := measureActual(context.Background(), p, m, oracle, 0)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := predict(context.Background(), p, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		po, err := predict(context.Background(), pOracle, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		e2e += relErr(pe.IterTime, actual.IterTime)
		orc += relErr(po.IterTime, actual.IterTime)
	}
	t.Logf("mean oracle err %.2f%%, mean e2e err %.2f%%", orc/3*100, e2e/3*100)
	if orc > 0.05*3 {
		t.Errorf("oracle error %.1f%% too large — simulator fidelity problem", orc/3*100)
	}
}

func TestDedupPreservesPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(2)
	p, _ := pipelineFor(t, cluster, Options{})
	// 16 GPUs: tp2 x pp2 x dp4 — plenty of duplicate workers.
	cfg := framework.MegatronConfig{Model: models.GPT3_1_3B(), NGPUs: 16, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 2}
	m := megatron(t, cfg)

	full := &Pipeline{Cluster: cluster, Suite: p.Suite, Opts: Options{NoDedup: true}}
	ded := &Pipeline{Cluster: cluster, Suite: p.Suite, Opts: Options{}}
	sel := &Pipeline{Cluster: cluster, Suite: p.Suite, Opts: Options{SelectiveLaunch: true}}

	rf, err := predict(context.Background(), full, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := predict(context.Background(), ded, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := predict(context.Background(), sel, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rf.UniqueWorkers != 16 {
		t.Errorf("no-dedup pipeline should simulate 16 workers, got %d", rf.UniqueWorkers)
	}
	if rd.UniqueWorkers >= rf.UniqueWorkers {
		t.Errorf("dedup did not reduce workers: %d vs %d", rd.UniqueWorkers, rf.UniqueWorkers)
	}
	if rs.UniqueWorkers != 2 {
		t.Errorf("selective launch should emulate one rank per pipeline stage (2), got %d", rs.UniqueWorkers)
	}
	if e := relErr(rd.IterTime, rf.IterTime); e > 0.02 {
		t.Errorf("dedup changed prediction by %.2f%%: %v vs %v", e*100, rd.IterTime, rf.IterTime)
	}
	if e := relErr(rs.IterTime, rf.IterTime); e > 0.02 {
		t.Errorf("selective launch changed prediction by %.2f%%: %v vs %v", e*100, rs.IterTime, rf.IterTime)
	}
}

func TestOOMDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	// 18.4B on 8 V100-40GB without sharding: hopelessly over capacity.
	cfg := framework.MegatronConfig{Model: models.GPT3_18_4B(), NGPUs: 8, GlobalBatch: 64, TP: 1, PP: 1, MicroBatches: 1}
	m := megatron(t, cfg)
	rep, err := predict(context.Background(), p, m, 0)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if !rep.OOM {
		t.Fatalf("expected OOM, got %v", rep)
	}
}

func TestKnobsMoveMemoryTheRightWay(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	base := framework.MegatronConfig{Model: models.GPT3_2_7B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 4}

	peak := func(cfg framework.MegatronConfig) int64 {
		rep, err := predict(context.Background(), p, megatron(t, cfg), 0)
		if err != nil {
			t.Fatalf("Predict(%s): %v", cfg, err)
		}
		return rep.PeakMemBytes
	}

	basePeak := peak(base)

	rec := base
	rec.ActRecompute = true
	if p := peak(rec); p >= basePeak {
		t.Errorf("activation recomputation did not reduce memory: %d -> %d", basePeak, p)
	}

	sp := base
	sp.SeqParallel = true
	if p := peak(sp); p >= basePeak {
		t.Errorf("sequence parallelism did not reduce memory: %d -> %d", basePeak, p)
	}

	do := base
	do.DistOptimizer = true
	if p := peak(do); p >= basePeak {
		t.Errorf("distributed optimizer did not reduce memory: %d -> %d", basePeak, p)
	}

	moreTP := base
	moreTP.TP, moreTP.PP = 4, 2
	if p := peak(moreTP); p >= basePeak {
		t.Errorf("higher TP did not reduce memory: %d -> %d", basePeak, p)
	}
}

func TestInterleavingReducesIterTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	cluster := hardware.DGXV100(1)
	p, _ := pipelineFor(t, cluster, Options{})
	base := framework.MegatronConfig{Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 8}
	inter := base
	inter.VirtualStages = 2

	rb, err := predict(context.Background(), p, megatron(t, base), 0)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := predict(context.Background(), p, megatron(t, inter), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rb.OOM || ri.OOM {
		t.Fatalf("test configs must fit in memory: base OOM=%t inter OOM=%t (peak %d)", rb.OOM, ri.OOM, rb.PeakMemBytes)
	}
	if ri.IterTime >= rb.IterTime {
		t.Errorf("interleaving (v=2) did not reduce iteration time: %v vs %v", ri.IterTime, rb.IterTime)
	}
}

// oraclePipeline builds a pipeline that needs no trained suite: the
// oracle annotates directly, which keeps cancellation tests fast.
func oraclePipeline(cluster hardware.Cluster, opts Options) *Pipeline {
	opts.Oracle = DefaultOracle(cluster)
	return &Pipeline{Cluster: cluster, Opts: opts}
}

func TestPredictPreCancelled(t *testing.T) {
	cluster := hardware.DGXV100(2)
	p := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 16, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := predict(ctx, p, m, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Predict with pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("pre-cancelled Predict took %v, want immediate return", e)
	}
}

// signalOnFirstRun wraps a workload and announces the first rank
// starting, so cancellation tests can cancel deterministically
// mid-emulation instead of racing a fixed sleep against core count.
type signalOnFirstRun struct {
	workload.Workload
	started chan struct{}
	once    sync.Once
}

func (s *signalOnFirstRun) Run(rank int, dev cuda.Device) error {
	s.once.Do(func() { close(s.started) })
	return s.Workload.Run(rank, dev)
}

func TestPredictMidFlightCancel(t *testing.T) {
	// A 64-rank full emulation (NoDedup): the cancel fires as soon as
	// the first rank starts, so it lands mid-emulation regardless of
	// how many ranks run in parallel; the prediction must abort well
	// before it would have completed.
	cluster := hardware.DGXV100(8)
	p := oraclePipeline(cluster, Options{NoDedup: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_2_7B(), NGPUs: 64, GlobalBatch: 128, TP: 2, PP: 4, MicroBatches: 8,
	})
	w := &signalOnFirstRun{Workload: m, started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := predict(ctx, p, w, 0)
		done <- err
	}()
	<-w.started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Predict after mid-flight cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("Predict did not observe cancellation within 15s (elapsed %v)", time.Since(start))
	}
}

func TestMeasureActualPreCancelled(t *testing.T) {
	cluster := hardware.DGXV100(1)
	p := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := measureActual(ctx, p, m, DefaultOracle(cluster), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureActual with pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}
