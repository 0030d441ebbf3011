package framework

import (
	"fmt"

	"maya/internal/cuda"
	"maya/internal/cudnn"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/nccl"
	"maya/internal/workload"
)

// DPStrategy selects the data-parallel training stack (Table 4's
// generality matrix).
type DPStrategy int

// Strategies.
const (
	// DDP is PyTorch DistributedDataParallel: replicated model,
	// bucketed gradient all-reduce overlapped with backward.
	DDP DPStrategy = iota
	// ZeRO1 shards optimizer state (DeepSpeed stage 1).
	ZeRO1
	// ZeRO2 also shards gradients (reduce-scatter buckets).
	ZeRO2
	// ZeRO3 also shards parameters (all-gather per block).
	ZeRO3
	// FSDP is PyTorch fully-sharded data parallel (ZeRO-3 family).
	FSDP
)

// String implements fmt.Stringer.
func (s DPStrategy) String() string {
	switch s {
	case DDP:
		return "ddp"
	case ZeRO1:
		return "zero1"
	case ZeRO2:
		return "zero2"
	case ZeRO3:
		return "zero3"
	case FSDP:
		return "fsdp"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

func (s DPStrategy) shardsParams() bool { return s == ZeRO3 || s == FSDP }
func (s DPStrategy) shardsGrads() bool  { return s == ZeRO2 || s.shardsParams() }
func (s DPStrategy) shardsOpt() bool    { return s != DDP }

// DataParallelConfig describes a data-parallel-only training job —
// the DeepSpeed / PyTorch scripts of the generality study and the
// ResNet evaluation. Exactly one of Transformer or CNN must be set.
type DataParallelConfig struct {
	Transformer *models.Transformer
	CNN         *models.CNN

	NGPUs       int
	GlobalBatch int
	// GradAccum is the number of microbatches each replica
	// accumulates per step.
	GradAccum int
	Strategy  DPStrategy
	// ActOffload stages activations to host memory between forward
	// and backward (DeepSpeed activation offload).
	ActOffload bool
	// Compile enables torch.compile: pointwise chains fuse into
	// Triton kernels and dense layers lower to cublasLtMatmul.
	Compile bool
	// DType is the autocast precision (default fp16).
	DType      string
	Iterations int
}

func (c DataParallelConfig) withDefaults() DataParallelConfig {
	if c.DType == "" {
		c.DType = "fp16"
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.GradAccum == 0 {
		c.GradAccum = 1
	}
	return c
}

// Validate rejects inconsistent jobs.
func (c DataParallelConfig) Validate() error {
	c = c.withDefaults()
	if (c.Transformer == nil) == (c.CNN == nil) {
		return fmt.Errorf("dataparallel: exactly one of Transformer or CNN must be set")
	}
	var err error
	if c.Transformer != nil {
		err = validateTransformer(*c.Transformer)
	} else {
		err = validateCNN(c.CNN)
	}
	if err != nil {
		return fmt.Errorf("dataparallel: model %s: %w", c.ModelName(), err)
	}
	switch {
	case c.NGPUs < 1 || c.GradAccum < 1:
		return fmt.Errorf("dataparallel: degrees must be positive (ngpus=%d gradaccum=%d)", c.NGPUs, c.GradAccum)
	case c.GlobalBatch < 1:
		return fmt.Errorf("dataparallel: global batch %d", c.GlobalBatch)
	case c.Iterations < 1:
		return fmt.Errorf("dataparallel: %d iterations", c.Iterations)
	case c.Strategy < DDP || c.Strategy > FSDP:
		return fmt.Errorf("dataparallel: unknown strategy %v", c.Strategy)
	// Divisibility by a product is tested factor by factor: a hostile
	// product could overflow to zero and divide by it.
	case c.GlobalBatch%c.NGPUs != 0 || c.GlobalBatch/c.NGPUs%c.GradAccum != 0:
		return fmt.Errorf("dataparallel: global batch %d not divisible by ngpus*gradaccum=%d",
			c.GlobalBatch, c.NGPUs*c.GradAccum)
	case c.GlobalBatch > maxGlobalBatch:
		return fmt.Errorf("dataparallel: global batch %d above %d", c.GlobalBatch, maxGlobalBatch)
	case !dtypes[c.DType]:
		return fmt.Errorf("dataparallel: unknown dtype %q", c.DType)
	}
	return nil
}

// ModelName names the configured model.
func (c DataParallelConfig) ModelName() string {
	if c.Transformer != nil {
		return c.Transformer.Name
	}
	return c.CNN.Name
}

// MicroBatchSize is sequences (or images) per microbatch per replica.
func (c DataParallelConfig) MicroBatchSize() int {
	return c.GlobalBatch / (c.NGPUs * c.GradAccum)
}

// DataParallel is the workload implementation.
type DataParallel struct {
	cfg DataParallelConfig
}

var (
	_ workload.Workload          = (*DataParallel)(nil)
	_ workload.SelectiveLauncher = (*DataParallel)(nil)
	_ workload.GroupAware        = (*DataParallel)(nil)
	_ workload.ClassHinter       = (*DataParallel)(nil)
	_ workload.Fingerprinter     = (*DataParallel)(nil)
)

// NewDataParallel validates and builds the workload.
func NewDataParallel(cfg DataParallelConfig) (*DataParallel, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DataParallel{cfg: cfg}, nil
}

// Name implements workload.Workload.
func (d *DataParallel) Name() string {
	n := d.cfg.Strategy.String() + "/" + d.cfg.ModelName()
	if d.cfg.Compile {
		n += "+compile"
	}
	if d.cfg.ActOffload {
		n += "+offload"
	}
	return n
}

// World implements workload.Workload.
func (d *DataParallel) World() int { return d.cfg.NGPUs }

// UniqueRanks implements workload.SelectiveLauncher: pure data
// parallelism means every rank is identical.
func (d *DataParallel) UniqueRanks() []int { return []int{0} }

// RankClasses implements workload.ClassHinter: one class holding all
// ranks — the verified counterpart of UniqueRanks, usable under
// dynamic dedup (vision and LLM DP jobs alike).
func (d *DataParallel) RankClasses() [][]int { return [][]int{dpWorld(d.cfg.NGPUs)} }

// dpWorld is the one data-parallel group: every rank.
func dpWorld(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// Fingerprint implements workload.Fingerprinter: the model geometry
// plus every knob that shapes the emitted trace.
func (d *DataParallel) Fingerprint() string {
	c := d.cfg
	model := ""
	if c.Transformer != nil {
		t := c.Transformer
		model = fmt.Sprintf("tfm:%s,L%d,h%d,heads%d,ffn%d,seq%d,vocab%d,exp%d,topk%d,gated%t",
			t.Name, t.Layers, t.Hidden, t.Heads, t.FFN, t.Seq, t.Vocab,
			t.NumExperts, t.ExpertTopK(), t.GatedMLP)
	} else if c.CNN != nil {
		n := c.CNN
		model = fmt.Sprintf("cnn:%s,in%d,stem%+v,classes%d,fc%d", n.Name, n.Input, n.Stem, n.Classes, n.FCHidden)
		for _, s := range n.Stages {
			model += fmt.Sprintf(",st%+v", s)
		}
	}
	return fmt.Sprintf("dataparallel|%s|ngpus%d,gb%d,ga%d,%s,offload%t,compile%t,%s,it%d",
		model, c.NGPUs, c.GlobalBatch, c.GradAccum, c.Strategy, c.ActOffload, c.Compile,
		c.DType, c.Iterations)
}

// CommGroups implements workload.GroupAware.
func (d *DataParallel) CommGroups() map[uint64][]int {
	if d.cfg.NGPUs <= 1 {
		return nil
	}
	group := dpWorld(d.cfg.NGPUs)
	return map[uint64][]int{uint64(nccl.UniqueIDFor("dp", group)): group}
}

// Run implements workload.Workload.
func (d *DataParallel) Run(rank int, dev cuda.Device) error {
	if rank < 0 || rank >= d.cfg.NGPUs {
		return fmt.Errorf("dataparallel: rank %d out of range [0,%d)", rank, d.cfg.NGPUs)
	}
	r := &dpRunner{shell: &shell{dev: dev, rank: rank}, cfg: d.cfg}
	return r.run("dataparallel", d.cfg.Iterations, r.setup, r.iteration)
}

// dpBlock is one gradient bucket / sharding unit: a transformer layer
// or a CNN stage.
type dpBlock struct {
	name     string
	params   int64
	actBytes int64
	emitFwd  func()
	emitBwd  func()
}

// dpRunner executes one rank's data-parallel training program on its
// shell.
type dpRunner struct {
	*shell
	cfg DataParallelConfig

	dnn     *cudnn.Handle
	offload cuda.Stream
	dpc     *nccl.Communicator

	// mr provides the transformer kernel emission (TP=1 path of the
	// Megatron runner, reused so feature shapes match exactly). It
	// runs on this runner's shell, so the two share one error.
	mr *megatronRunner

	es     int64
	mbs    int
	blocks []dpBlock
	params int64
}

// malloc floors a request at one byte: an empty block still gets a
// buffer.
func (r *dpRunner) malloc(bytes int64) cuda.DevicePtr { return r.shell.malloc(max(bytes, 1)) }

func (r *dpRunner) setup() {
	cfg := r.cfg
	r.es = hardware.DType(cfg.DType).Size()
	r.mbs = cfg.MicroBatchSize()
	if r.open(); r.err != nil {
		return
	}
	if cfg.ActOffload {
		var err error
		r.offload, err = r.dev.StreamCreate()
		r.check(err)
	}
	if cfg.NGPUs > 1 {
		r.dpc = r.initComm("dp", dpWorld(cfg.NGPUs))
	}

	if cfg.Transformer != nil {
		r.setupTransformer()
	} else {
		var derr error
		r.dnn, derr = cudnn.Create(r.dev)
		r.check(derr)
		r.setupCNN()
	}
	for _, b := range r.blocks {
		r.params += b.params
	}

	// Persistent memory: parameters (sharded for ZeRO-3/FSDP),
	// gradients (sharded for ZeRO-2+), optimizer state (sharded for
	// any ZeRO stage).
	dp := int64(cfg.NGPUs)
	w := r.params * r.es
	if cfg.Strategy.shardsParams() && dp > 1 {
		w = (w + dp - 1) / dp
	}
	g := r.params * 4
	if cfg.Strategy.shardsGrads() && dp > 1 {
		g = (g + dp - 1) / dp
	}
	optPerParam := int64(12) // Adam
	if cfg.CNN != nil {
		optPerParam = 8 // SGD momentum + fp32 master
	}
	o := r.params * optPerParam
	if cfg.Strategy.shardsOpt() && dp > 1 {
		o = (o + dp - 1) / dp
	}
	r.malloc(w)
	r.malloc(g)
	r.malloc(o)
	r.endSetup()
}

// setupTransformer builds per-layer blocks that reuse the Megatron
// emitter with TP=PP=1.
func (r *dpRunner) setupTransformer() {
	cfg := r.cfg
	mcfg := MegatronConfig{
		Model:        *cfg.Transformer,
		NGPUs:        1,
		GlobalBatch:  r.mbs,
		TP:           1,
		PP:           1,
		MicroBatches: 1,
		DType:        cfg.DType,
	}.withDefaults()
	r.mr = &megatronRunner{
		shell: r.shell,
		cfg:   mcfg,
		co:    rankCoords{},
		dp:    1,
		mbs:   r.mbs,
		d:     1,
		es:    r.es,
	}
	mdl := cfg.Transformer
	h := int64(mdl.Hidden)
	f := int64(mdl.FFN)
	mlpMats := int64(2)
	if mdl.GatedMLP {
		mlpMats = 3
	}
	layerParams := 4*h*h + mlpMats*h*f + 4*h
	s := float64(mdl.Seq)
	n := float64(r.mbs) * s
	a := float64(mdl.Heads)
	actPerLayer := int64(n*float64(h)*34 + 5*a*s*n)

	embParams := int64(mdl.Vocab)*h + int64(mdl.Seq)*h
	r.blocks = append(r.blocks, dpBlock{
		name:     "embedding",
		params:   embParams,
		actBytes: int64(n) * h * r.es,
		emitFwd:  r.mr.emitEmbeddingForward,
		emitBwd:  r.mr.emitEmbeddingBackward,
	})
	for l := 0; l < mdl.Layers; l++ {
		r.blocks = append(r.blocks, dpBlock{
			name:     fmt.Sprintf("layer%d", l),
			params:   layerParams,
			actBytes: actPerLayer,
			emitFwd:  r.mr.emitLayerForward,
			emitBwd:  r.mr.emitLayerBackward,
		})
	}
	r.blocks = append(r.blocks, dpBlock{
		name:     "head",
		params:   0, // tied with embedding
		actBytes: int64(n) * int64(mdl.Vocab) * r.es,
		emitFwd:  r.mr.emitHeadForward,
		emitBwd:  r.mr.emitHeadBackward,
	})
}

func (r *dpRunner) iteration() {
	cfg := r.cfg
	dp := int64(cfg.NGPUs)
	gathered := make([]cuda.DevicePtr, len(r.blocks))
	acts := make([]cuda.DevicePtr, len(r.blocks))
	hostStaged := make([]bool, len(r.blocks))

	for mb := 0; mb < cfg.GradAccum && r.err == nil; mb++ {
		last := mb == cfg.GradAccum-1
		// Input batch: host-to-device.
		r.check(r.dev.MemcpyAsync(0, 0, r.inputBytes(), cuda.MemcpyHostToDevice, r.compute))

		for bi := range r.blocks {
			b := &r.blocks[bi]
			if cfg.Strategy.shardsParams() && r.dpc != nil && b.params > 0 {
				// Materialize the full block parameters.
				gathered[bi] = r.malloc(b.params * r.es)
				r.check(r.dpc.AllGather(b.params*r.es/dp, r.compute))
			}
			acts[bi] = r.malloc(b.actBytes)
			b.emitFwd()
			if cfg.ActOffload {
				// Stage activations to host on the offload stream.
				r.eventHandoff(r.compute, r.offload)
				r.check(r.dev.MemcpyAsync(0, acts[bi], b.actBytes, cuda.MemcpyDeviceToHost, r.offload))
				r.free(acts[bi])
				acts[bi] = 0
				hostStaged[bi] = true
			}
			if gathered[bi] != 0 {
				r.free(gathered[bi])
				gathered[bi] = 0
			}
		}

		for bi := len(r.blocks) - 1; bi >= 0 && r.err == nil; bi-- {
			b := &r.blocks[bi]
			if hostStaged[bi] {
				acts[bi] = r.malloc(b.actBytes)
				r.check(r.dev.MemcpyAsync(acts[bi], 0, b.actBytes, cuda.MemcpyHostToDevice, r.compute))
				hostStaged[bi] = false
			}
			if cfg.Strategy.shardsParams() && r.dpc != nil && b.params > 0 {
				gathered[bi] = r.malloc(b.params * r.es)
				r.check(r.dpc.AllGather(b.params*r.es/dp, r.compute))
			}
			b.emitBwd()
			r.free(acts[bi])
			acts[bi] = 0
			if gathered[bi] != 0 {
				r.free(gathered[bi])
				gathered[bi] = 0
			}
			if r.dpc != nil && b.params > 0 && (last || cfg.Strategy.shardsGrads()) {
				// Gradient bucket synchronization, overlapped on the
				// comm stream. ZeRO-2+ reduces every microbatch
				// (sharded accumulation); DDP/ZeRO-1 only after the
				// last.
				r.eventHandoff(r.compute, r.comm)
				if cfg.Strategy.shardsGrads() {
					r.check(r.dpc.ReduceScatter(b.params*4/dp, r.comm))
				} else {
					r.check(r.dpc.AllReduce(b.params*4, r.comm))
				}
			}
		}
	}
	if r.dpc != nil {
		// Join the reduction stream before stepping.
		r.eventHandoff(r.comm, r.compute)
	}
	r.optimizerStep()
	r.endIteration()
}

// eventHandoff is the handoff, skipped after an error.
func (r *dpRunner) eventHandoff(src, dst cuda.Stream) {
	if r.err == nil {
		r.handoff(src, dst)
	}
}

func (r *dpRunner) inputBytes() int64 {
	if r.cfg.Transformer != nil {
		return int64(r.mbs) * int64(r.cfg.Transformer.Seq) * 8
	}
	in := r.cfg.CNN.Input
	return int64(r.mbs) * 3 * int64(in) * int64(in) * 4
}

func (r *dpRunner) optimizerStep() {
	cfg := r.cfg
	dp := int64(cfg.NGPUs)
	stepParams := r.params
	if cfg.Strategy.shardsOpt() && dp > 1 {
		stepParams = (stepParams + dp - 1) / dp
	}
	r.adamStep(stepParams, r.dpc)
	if cfg.Strategy.shardsOpt() && !cfg.Strategy.shardsParams() && r.dpc != nil {
		// ZeRO-1/2 re-broadcast updated parameters.
		r.check(r.dpc.AllGather(r.params*r.es/dp, r.compute))
	}
}
