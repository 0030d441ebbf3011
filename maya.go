// Package maya is a performance-modeling system for distributed
// deep-learning training: it predicts the end-to-end runtime, memory
// footprint and hardware utilization of unmodified training workloads
// on GPU clusters the user does not have — by transparently emulating
// the accelerator device API underneath the training program, then
// simulating the captured execution trace.
//
// This is the public facade over the full pipeline (device emulation,
// trace collation, learned kernel-runtime estimation, discrete-event
// cluster simulation) plus Maya-Search, the configuration-search
// system built on top. See DESIGN.md for the architecture, the
// context/request API contract, the estimator-cache lifecycle and the
// reproduced-experiment index.
//
// Every entry point takes a context.Context and observes
// cancellation through all pipeline stages, so long emulations and
// searches can be deadlined or aborted. Expensive estimator training
// is memoized in an EstimatorCache; predictors resolve their suite
// lazily on first use, or eagerly via EstimatorCache.Warm.
//
// Quickstart:
//
//	cluster, _ := maya.ClusterByName("32xH100")
//	pred, _ := maya.NewPredictor(cluster, maya.ProfileLLM)
//	w, _ := maya.NewMegatron(maya.MegatronConfig{ ... })
//	report, _ := pred.Predict(ctx, w, maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
//	fmt.Println(report.IterTime, report.MFU)
package maya

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/topo"
	"maya/internal/workload"
)

// Re-exported core types. These aliases are the stable public API;
// the internal packages they point at are implementation detail.
type (
	// Cluster describes the target hardware.
	Cluster = hardware.Cluster
	// GPU describes one accelerator.
	GPU = hardware.GPU
	// DType is a numeric element type.
	DType = hardware.DType
	// Workload is an unmodified training program.
	Workload = workload.Workload
	// Report is a prediction or measurement result.
	Report = core.Report
	// StageTimings breaks down pipeline wall-clock per stage.
	StageTimings = core.StageTimings
	// StallProfile is the per-worker stall attribution of one
	// simulated run (see WithStallBreakdown).
	StallProfile = core.StallProfile
	// WorkerStall is one worker's stall attribution: event waits,
	// collective straggler waits, host-bound stretches and pipeline
	// bubbles.
	WorkerStall = core.WorkerStall
	// Timeline records a simulated run as a Chrome-trace timeline
	// (see WithTimeline and NewTimeline).
	Timeline = sim.Timeline
	// CacheStats is a snapshot of EstimatorCache accounting.
	CacheStats = core.CacheStats
	// MegatronConfig is a Megatron-LM style training recipe.
	MegatronConfig = framework.MegatronConfig
	// DataParallelConfig is a DDP/ZeRO/FSDP training job.
	DataParallelConfig = framework.DataParallelConfig
	// Transformer is a transformer architecture description.
	Transformer = models.Transformer
	// CNN is a convolutional architecture description.
	CNN = models.CNN
	// DPStrategy selects the data-parallel training stack.
	DPStrategy = framework.DPStrategy
)

// Data types.
const (
	FP32 = hardware.FP32
	FP16 = hardware.FP16
	BF16 = hardware.BF16
)

// Data-parallel strategies.
const (
	DDP   = framework.DDP
	ZeRO1 = framework.ZeRO1
	ZeRO2 = framework.ZeRO2
	ZeRO3 = framework.ZeRO3
	FSDP  = framework.FSDP
)

// ProfileKind selects which kernel families the predictor's
// estimators are trained on.
type ProfileKind = estimator.ProfileKind

// Profile kinds.
const (
	ProfileLLM    = estimator.ProfileLLM
	ProfileVision = estimator.ProfileVision
	ProfileAll    = estimator.ProfileAll
)

// Cluster constructors.
var (
	// DGXH100 builds an H100 cluster with the given node count.
	DGXH100 = hardware.DGXH100
	// DGXV100 builds a V100 cluster with the given node count.
	DGXV100 = hardware.DGXV100
	// A40Node builds the single 8xA40 node.
	A40Node = hardware.A40Node
)

// ClusterByName parses a cluster spec such as "64xH100".
func ClusterByName(spec string) (Cluster, error) { return hardware.ByName(spec) }

// NewMegatron builds a Megatron-LM style workload from a recipe.
func NewMegatron(cfg MegatronConfig) (Workload, error) { return framework.NewMegatron(cfg) }

// NewDataParallel builds a DDP/ZeRO/FSDP workload.
func NewDataParallel(cfg DataParallelConfig) (Workload, error) {
	return framework.NewDataParallel(cfg)
}

// Model presets.
var (
	GPT3_1_3B   = models.GPT3_1_3B
	GPT3_2_7B   = models.GPT3_2_7B
	GPT3_18_4B  = models.GPT3_18_4B
	GPT3_145_6B = models.GPT3_145_6B
	Llama2_7B   = models.Llama2_7B
	BERTLarge   = models.BERTLarge
	ResNet152   = models.ResNet152
)

// Predictor predicts workload performance on one cluster. It is safe
// for concurrent use: the trained estimator suite is shared across
// calls and goroutines.
//
// Construction is cheap. The suite is resolved from the predictor's
// EstimatorCache on the first call that needs it (training on a cache
// miss); use EstimatorCache.Warm to pay that cost eagerly. Calls that
// annotate with the ground-truth oracle (MeasureActual, or Predict
// under WithOracleAnnotation) never require a trained suite.
type Predictor struct {
	cluster  hardware.Cluster
	kind     ProfileKind
	topology string // the WithTopology spec, stamped into captures
	defaults predictSettings
	cache    *EstimatorCache
	captures *CaptureCache
	netModel *netsim.Model
	oracle   *silicon.Oracle

	// netsimSuites memoizes the netsim-wrapped view of each resolved
	// base suite. Wrapping allocates a new *Suite, and capture-
	// attached estimate plans are keyed by suite pointer — without
	// memoization every netsim call would mint a fresh suite and
	// rebuild its plans from scratch.
	netsimMu    sync.Mutex
	netsimBase  *estimator.Suite
	netsimSuite *estimator.Suite
}

// PredictorOption customizes Predictor construction. Options that
// also make sense per call satisfy both PredictorOption and
// PredictOption (see Option).
type PredictorOption interface {
	applyPredictor(*Predictor)
}

// predictorOption adapts a plain function to PredictorOption.
type predictorOption func(*Predictor)

func (f predictorOption) applyPredictor(p *Predictor) { f(p) }

// WithoutDedup disables worker deduplication (every rank is emulated
// and simulated).
func WithoutDedup() PredictorOption {
	return predictorOption(func(p *Predictor) { p.defaults.noDedup = true })
}

// WithEstimatorCache injects the cache the predictor resolves its
// estimator suite from. Predictors without it share
// DefaultEstimatorCache.
func WithEstimatorCache(cache *EstimatorCache) PredictorOption {
	return predictorOption(func(p *Predictor) { p.cache = cache })
}

// WithTopology selects the network fabric the predictor models the
// cluster with, as a declarative spec: "auto" (or "") derives the
// canonical hierarchy from the cluster hardware, "flat" collapses it
// to one fabric level, "rail" gives the spine one rail per local GPU,
// "oversub:K" divides spine bandwidth by K, and "pods:K" inserts a
// pod tier of K islands under an oversubscribed core. The spec is
// validated at NewPredictor. It shapes netsim collective estimates
// (WithNetSim) and congestion-aware simulation (WithCongestion), and
// is stamped into captures as provenance.
func WithTopology(spec string) PredictorOption {
	return predictorOption(func(p *Predictor) { p.topology = spec })
}

// Option is accepted both at predictor construction and per call:
// WithNetSim, WithCongestion, WithSeed and WithFaults. Construction
// sets the predictor's default; every call starts from those defaults
// and applies its own options over them, in order, so a per-call use
// overrides the default for that call only.
type Option interface {
	PredictorOption
	PredictOption
}

// dualOption implements Option: one setting, applied to the
// predictor's defaults at construction and to a call's copy of them
// per call.
type dualOption func(*predictSettings)

func (f dualOption) applyPredictor(p *Predictor)     { f(&p.defaults) }
func (f dualOption) applyPredict(s *predictSettings) { f(s) }

// WithNetSim sources collective times from the built-in hierarchical
// network simulator instead of profiled curves — required beyond
// profiled cluster scales. As a PredictorOption it becomes the
// predictor's default; as a PredictOption it selects netsim
// collectives for one Predict/Simulate call.
func WithNetSim() Option {
	return dualOption(func(s *predictSettings) { s.netsim = true })
}

// WithCongestion resolves collective completions against link-level
// contention instead of replaying annotated durations verbatim:
// concurrently-active collectives whose communicators span the same
// fabric link split its bandwidth (the latency portion of each
// collective is unaffected). Off by default. The model is exercised
// at simulation time only — capture is unchanged — and is fully
// deterministic: repeated runs, pooled and fresh engines produce
// bit-identical reports. Physical-replay calls (MeasureActual,
// WithPhysicalReplay) model contention through the silicon instead
// and ignore this option. As a PredictorOption it becomes the
// predictor's default; as a PredictOption it enables congestion for
// one call.
func WithCongestion() Option {
	return dualOption(func(s *predictSettings) { s.congestion = true })
}

// WithSeed namespaces the measurement randomness of the synthetic
// silicon (MeasureActual's launch jitter and contention draws, and
// emulation-time measured host delays). As a PredictorOption it sets
// the predictor default; as a PredictOption it overrides one call.
// The zero seed is the canonical silicon.
func WithSeed(seed uint64) Option {
	return dualOption(func(s *predictSettings) { s.seed = seed })
}

// NewPredictor returns a predictor for the cluster. Construction
// validates the cluster but does not train: kernel estimators are
// resolved from the estimator cache on first use (see EstimatorCache
// and its Warm method for eager training).
func NewPredictor(cluster Cluster, kind ProfileKind, opts ...PredictorOption) (*Predictor, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cluster:  cluster,
		kind:     kind,
		defaults: predictSettings{dtype: BF16},
		cache:    DefaultEstimatorCache(),
		oracle:   core.DefaultOracle(cluster),
	}
	for _, opt := range opts {
		opt.applyPredictor(p)
	}
	fabric, err := topo.ByName(p.topology, cluster)
	if err != nil {
		return nil, fmt.Errorf("maya: %w", err)
	}
	p.netModel = netsim.NewWithTopology(cluster, fabric)
	if p.defaults.faults != nil {
		if err := p.defaults.faults.Validate(); err != nil {
			return nil, fmt.Errorf("maya: %w", err)
		}
	}
	return p, nil
}

// Cluster returns the predictor's target cluster.
func (p *Predictor) Cluster() Cluster { return p.cluster }

// Topology returns the name of the network fabric the predictor
// models ("auto" for the cluster-derived default).
func (p *Predictor) Topology() string { return p.netModel.Topology().Name }

// CongestionDefault reports whether congestion-aware simulation is
// this predictor's construction default (WithCongestion).
func (p *Predictor) CongestionDefault() bool { return p.defaults.congestion }

// ProfileKind returns the kernel-family profile the predictor's
// estimators are trained on.
func (p *Predictor) ProfileKind() ProfileKind { return p.kind }

// EstimatorCache returns the cache this predictor resolves its
// estimator suite from — the injected one, or the process-wide
// default. Services front a predictor with it: poll Stats from a
// metrics endpoint, Warm at boot, Evict after hardware swaps.
func (p *Predictor) EstimatorCache() *EstimatorCache { return p.cache }

// CaptureCache returns the capture cache injected with
// WithCaptureCache, or nil when the predictor captures per call.
func (p *Predictor) CaptureCache() *CaptureCache { return p.captures }

// Warm trains (or confirms) this predictor's own estimator suite —
// its cluster and profile kind, in its estimator cache — so the first
// prediction pays no training latency. It is the per-predictor
// convenience over EstimatorCache.Warm; long-running services call it
// at boot. Cancelling ctx aborts the training, which is then not
// cached.
func (p *Predictor) Warm(ctx context.Context) error {
	_, _, err := p.cache.impl.SuiteFor(ctx, p.cluster, p.oracle, p.kind)
	return err
}

// predictSettings are the settings of one Predict, MeasureActual,
// Capture, Simulate or batch request. The predictor holds one as its
// defaults; settings merges a call's options over a copy of them.
type predictSettings struct {
	flops      float64
	dtype      DType
	oracle     bool
	physical   bool
	breakdown  bool
	observer   sim.Observer
	netsim     bool
	congestion bool
	seed       uint64
	noDedup    bool // WithoutDedup; captureOptions adds the plan's demand
	faults     *faults.Plan
}

// PredictOption customizes one Predict, MeasureActual, Capture,
// Simulate or batch request.
type PredictOption interface {
	applyPredict(*predictSettings)
}

// predictOption adapts a plain function to PredictOption.
type predictOption func(*predictSettings)

func (f predictOption) applyPredict(s *predictSettings) { f(s) }

// WithModelFLOPs supplies the per-iteration model FLOP count used for
// MFU. Without it MFU is skipped.
func WithModelFLOPs(flops float64) PredictOption {
	return predictOption(func(s *predictSettings) { s.flops = flops })
}

// WithDType sets the training precision whose peak throughput MFU is
// normalized by. BF16 is the default.
func WithDType(dt DType) PredictOption {
	return predictOption(func(s *predictSettings) { s.dtype = dt })
}

// WithOracleAnnotation makes this call annotate kernels with
// ground-truth runtimes instead of learned estimates — the "oracle"
// rows of Table 3. Such calls need no trained estimator suite.
func WithOracleAnnotation() PredictOption {
	return predictOption(func(s *predictSettings) { s.oracle = true })
}

// WithPhysicalReplay makes this call annotate with ground truth and
// replay in the simulator's physical mode (launch jitter, SM
// contention) — exactly what MeasureActual does, but selectable per
// call so a captured Trace can be both predicted and "deployed"
// without re-emulating. Such calls need no trained estimator suite.
func WithPhysicalReplay() PredictOption {
	return predictOption(func(s *predictSettings) { s.physical = true })
}

// NewTimeline returns an empty timeline recorder for WithTimeline.
func NewTimeline() *Timeline { return sim.NewTimeline() }

// WithTimeline records this call's simulated run into tl at CUDA-API
// granularity; tl.WriteChromeTrace then exports a Chrome-trace JSON
// timeline loadable in chrome://tracing or Perfetto. Use a fresh
// Timeline per call — a recorder is not safe across concurrent
// requests, and reusing one concatenates runs. A nil tl records
// nothing (the option is a no-op).
func WithTimeline(tl *Timeline) PredictOption {
	return predictOption(func(s *predictSettings) {
		if tl != nil {
			// Guard the typed-nil: a nil *Timeline stored in the
			// interface would defeat the engine's nil fast path.
			s.observer = tl
		}
	})
}

// WithStallBreakdown attributes every worker's idle time in this
// call's simulation — event waits, collective straggler waits,
// host-bound stretches and pipeline bubbles — and fills
// Report.Stalls with the result. The attribution observer costs a
// few percent of simulation time; calls without this option pay
// nothing.
func WithStallBreakdown() PredictOption {
	return predictOption(func(s *predictSettings) { s.breakdown = true })
}

// settings is the one merge of the predictor's defaults and a call's
// options: the options apply, in order, over a copy of the defaults.
func (p *Predictor) settings(opts []PredictOption) predictSettings {
	s := p.defaults
	for _, opt := range opts {
		opt.applyPredict(&s)
	}
	return s
}

// captureOptions derives the core options a capture depends on from a
// call's settings; both capture keys read its result. It is the one
// place NoDedup is decided: fault plans address world ranks, so
// WithoutDedup, a predictor default plan and the call's own plan all
// capture every rank — a predictor built with a plan even on a call
// that drops it.
func (p *Predictor) captureOptions(s predictSettings) core.Options {
	return core.Options{
		SelectiveLaunch: true,
		Seed:            s.seed,
		Topology:        p.topology,
		NoDedup:         s.noDedup || s.faults != nil || p.defaults.faults != nil,
	}
}

// resolveSuite returns the predictor's trained estimator suite,
// consulting the cache on every call (a hit is a cheap locked map
// lookup) so that Evict/Purge on the cache take effect for live
// predictors: the next call after an eviction retrains.
func (p *Predictor) resolveSuite(ctx context.Context, s predictSettings) (*estimator.Suite, error) {
	suite, _, err := p.cache.impl.SuiteFor(ctx, p.cluster, p.oracle, p.kind)
	if err != nil {
		return nil, fmt.Errorf("maya: training estimators: %w", err)
	}
	if s.netsim {
		suite = p.netsimView(suite)
	}
	return suite, nil
}

// netsimView returns the netsim-collective wrapping of base, reusing
// the previous wrapper while base is unchanged so repeated netsim
// calls present one stable suite identity (the key capture-attached
// estimate plans are cached under). A cache eviction hands back a new
// base suite, which transparently mints a new wrapper.
func (p *Predictor) netsimView(base *estimator.Suite) *estimator.Suite {
	p.netsimMu.Lock()
	defer p.netsimMu.Unlock()
	if p.netsimBase != base {
		p.netsimBase = base
		p.netsimSuite = base.WithCollectiveEstimator(p.netModel)
	}
	return p.netsimSuite
}

// pipelineFor builds the full per-call pipeline view: shared cluster
// and suite, the call's capture options plus its simulation settings.
// Calls that annotate with ground truth (oracle or physical replay)
// skip suite resolution and therefore never train.
func (p *Predictor) pipelineFor(ctx context.Context, s predictSettings) (*core.Pipeline, error) {
	if s.faults != nil && s.physical {
		return nil, errors.New("maya: fault scenarios apply to simulated predictions only; physical replay models the silicon, not operational faults")
	}
	pipe := &core.Pipeline{Cluster: p.cluster, Opts: p.captureOptions(s)}
	pipe.Opts.Faults = s.faults
	pipe.Opts.Observer = s.observer
	pipe.Opts.Breakdown = s.breakdown
	if s.oracle {
		pipe.Opts.Oracle = p.oracle
	}
	if s.congestion && !s.physical {
		// Physical replay models contention through the silicon; the
		// link-sharing model applies to simulated predictions only.
		pipe.Opts.Congestion = p.netModel
	}
	if !s.oracle && !s.physical {
		suite, err := p.resolveSuite(ctx, s)
		if err != nil {
			return nil, err
		}
		pipe.Suite = suite
	}
	return pipe, nil
}

// simulateCapture runs the back half of a prediction on an existing
// capture: physical replay for measurement calls, annotate+simulate
// otherwise. When stampCapture is set the report's Emulate/Collate
// stage timings carry the capture's recorded cost (the composed
// Predict path); reused captures report zero there instead.
func (p *Predictor) simulateCapture(ctx context.Context, pipe *core.Pipeline, c *core.Capture, s predictSettings, stampCapture bool) (*Report, error) {
	var rep *Report
	var err error
	if s.physical {
		rep, err = pipe.Measure(ctx, c, p.oracle, s.flops, s.dtype)
	} else {
		rep, err = pipe.Simulate(ctx, c, s.flops, s.dtype)
	}
	if err != nil {
		return nil, err
	}
	if stampCapture {
		rep.Stages.Emulate, rep.Stages.Collate = c.EmulateTime, c.CollateTime
	}
	return rep, nil
}

// Predict runs the full Maya pipeline for the workload: one capture
// (emulate + collate), then annotate + simulate. Cancellation of ctx
// is observed by every stage, so a large multi-rank prediction
// aborts promptly and returns ctx.Err(). To evaluate one workload
// many ways, Capture once and call Simulate per variant instead.
func (p *Predictor) Predict(ctx context.Context, w Workload, opts ...PredictOption) (*Report, error) {
	if w == nil {
		return nil, errors.New("maya: Predict of a nil workload")
	}
	return p.predict(ctx, w, p.settings(opts))
}

func (p *Predictor) predict(ctx context.Context, w Workload, s predictSettings) (*Report, error) {
	pipe, err := p.pipelineFor(ctx, s)
	if err != nil {
		return nil, err
	}
	c, paid, err := p.captureFor(ctx, p.captureOptions(s), w)
	if err != nil {
		return nil, err
	}
	defer c.Release()
	return p.simulateCapture(ctx, pipe, c, s, paid)
}

// MeasureActual times the workload on the bundled synthetic silicon —
// the stand-in for deploying on real hardware that all accuracy
// experiments compare against. On a real deployment this would be
// replaced by running the job. It is Predict with WithPhysicalReplay:
// capture once, ground-truth annotation, physical-mode replay. It
// needs no trained estimators and observes ctx the same way Predict
// does.
func (p *Predictor) MeasureActual(ctx context.Context, w Workload, opts ...PredictOption) (*Report, error) {
	if w == nil {
		return nil, errors.New("maya: MeasureActual of a nil workload")
	}
	s := p.settings(opts)
	s.physical = true
	return p.predict(ctx, w, s)
}
