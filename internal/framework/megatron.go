// Package framework contains the training programs Maya models: a
// Megatron-LM-style engine (3D parallelism, 1F1B and interleaved
// pipeline schedules, sequence parallelism, activation recomputation,
// gradient accumulation, distributed optimizer), DeepSpeed-style ZeRO
// with activation offload, FSDP, DDP, vision training and a
// torch.compile-style fusion mode.
//
// Everything in this package is *user code* from Maya's point of
// view: it only talks to the cuda/cublas/cudnn/nccl narrow waist and
// runs unmodified under the emulator, the profiler or the synthetic
// silicon. The kernel names, shapes, stream usage and collective
// patterns reproduce what the real frameworks emit (the kernel
// inventory of the paper's Appendix B).
package framework

import (
	"fmt"

	"maya/internal/cuda"
	"maya/internal/models"
	"maya/internal/nccl"
	"maya/internal/workload"
)

// MegatronConfig is a Megatron-LM training recipe: the paper's Table
// 5 knobs plus the model, batch and cluster-size inputs.
type MegatronConfig struct {
	Model models.Transformer
	// NGPUs is the world size; DP = NGPUs / (TP*PP).
	NGPUs int
	// GlobalBatch is the total sequences per iteration.
	GlobalBatch int
	// TP is the tensor-parallel degree.
	TP int
	// PP is the pipeline-parallel degree.
	PP int
	// MicroBatches is the number of microbatches each data-parallel
	// replica splits its share into (gradient accumulation when PP=1).
	MicroBatches int
	// VirtualStages interleaves the pipeline: each stage owns this
	// many model chunks (1 = classic 1F1B).
	VirtualStages int
	// DualPipe selects the DeepSeek bidirectional pipeline schedule:
	// the model splits into 2*PP chunks and rank p hosts stages p and
	// 2*PP-1-p, so activations flow from both ends and the bubble
	// shrinks. Mutually exclusive with VirtualStages>1. This is the
	// paper's §3.3 example of an optimization other modeling systems
	// must be rewritten for; under emulation it is just another
	// workload.
	DualPipe bool
	// SeqParallel shards layernorm/dropout activations along the
	// sequence dimension across the TP group.
	SeqParallel bool
	// ActRecompute recomputes layer forwards during backward, storing
	// only layer inputs.
	ActRecompute bool
	// DistOptimizer shards optimizer state across the DP group
	// (ZeRO-1 style reduce-scatter + all-gather).
	DistOptimizer bool
	// DType is the training precision (default bf16).
	DType string
	// Iterations is the number of training iterations to run
	// (default 1; each Megatron iteration includes its own pipeline
	// fill and drain, so one iteration is already steady state).
	Iterations int
	// NoDPOverlap disables overlapping gradient reduction with the
	// remaining backward compute (overlap is the Megatron default).
	NoDPOverlap bool
}

func (c MegatronConfig) withDefaults() MegatronConfig {
	if c.DType == "" {
		c.DType = "bf16"
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.VirtualStages == 0 {
		c.VirtualStages = 1
	}
	if c.MicroBatches == 0 {
		c.MicroBatches = 1
	}
	return c
}

// DP returns the data-parallel degree.
func (c MegatronConfig) DP() int { return c.NGPUs / (c.TP * c.PP) }

// MicroBatchSize returns sequences per microbatch per replica.
func (c MegatronConfig) MicroBatchSize() int {
	return c.GlobalBatch / (c.DP() * c.MicroBatches)
}

// dtypes are the element types the programs emit; an empty DType
// takes its program's default before Validate checks it.
var dtypes = map[string]bool{"fp16": true, "bf16": true, "fp32": true}

// Validate rejects inconsistent recipes; OOM is not checked here —
// it is discovered by the emulator's allocator, as on hardware.
func (c MegatronConfig) Validate() error {
	c = c.withDefaults()
	m := c.Model
	if err := validateTransformer(m); err != nil {
		return fmt.Errorf("megatron: model %s: %w", m.Name, err)
	}
	switch {
	case c.NGPUs < 1 || c.TP < 1 || c.PP < 1 || c.VirtualStages < 1 || c.MicroBatches < 1:
		return fmt.Errorf("megatron: degrees must be positive (ngpus=%d tp=%d pp=%d v=%d microbatches=%d)",
			c.NGPUs, c.TP, c.PP, c.VirtualStages, c.MicroBatches)
	case c.GlobalBatch < 1:
		return fmt.Errorf("megatron: global batch %d", c.GlobalBatch)
	case c.Iterations < 1:
		return fmt.Errorf("megatron: %d iterations", c.Iterations)
	// Divisibility by a product is tested factor by factor: a hostile
	// product could overflow to zero and divide by it.
	case c.NGPUs%c.TP != 0 || c.NGPUs/c.TP%c.PP != 0:
		return fmt.Errorf("megatron: %d GPUs not divisible by TP*PP=%d", c.NGPUs, c.TP*c.PP)
	case m.Heads%c.TP != 0:
		return fmt.Errorf("megatron: %d heads not divisible by TP=%d", m.Heads, c.TP)
	case m.Hidden%c.TP != 0 || m.FFN%c.TP != 0:
		return fmt.Errorf("megatron: hidden/ffn not divisible by TP=%d", c.TP)
	case m.Vocab%c.TP != 0:
		return fmt.Errorf("megatron: vocab %d not divisible by TP=%d", m.Vocab, c.TP)
	case m.Layers%c.PP != 0 || m.Layers/c.PP%c.VirtualStages != 0:
		return fmt.Errorf("megatron: %d layers not divisible by PP*V=%d", m.Layers, c.PP*c.VirtualStages)
	case c.VirtualStages > 1 && c.PP == 1:
		return fmt.Errorf("megatron: virtual stages need PP>1")
	case c.DualPipe && c.PP == 1:
		return fmt.Errorf("megatron: DualPipe needs PP>1")
	case c.DualPipe && c.VirtualStages > 1:
		return fmt.Errorf("megatron: DualPipe and interleaving are mutually exclusive")
	case c.DualPipe && m.Layers%(2*c.PP) != 0:
		return fmt.Errorf("megatron: %d layers not divisible by 2*PP=%d (DualPipe)", m.Layers, 2*c.PP)
	case c.SeqParallel && c.TP == 1:
		return fmt.Errorf("megatron: sequence parallelism needs TP>1")
	case c.SeqParallel && m.Seq%c.TP != 0:
		return fmt.Errorf("megatron: seq %d not divisible by TP=%d", m.Seq, c.TP)
	case c.GlobalBatch%c.DP() != 0 || c.GlobalBatch/c.DP()%c.MicroBatches != 0:
		return fmt.Errorf("megatron: global batch %d not divisible by DP*microbatches=%d",
			c.GlobalBatch, c.DP()*c.MicroBatches)
	case c.GlobalBatch > maxGlobalBatch:
		return fmt.Errorf("megatron: global batch %d above %d", c.GlobalBatch, maxGlobalBatch)
	case !dtypes[c.DType]:
		return fmt.Errorf("megatron: unknown dtype %q", c.DType)
	case c.DistOptimizer && c.DP() == 1:
		// Accepted (it is a no-op), matching Megatron behavior.
	}
	return nil
}

// String summarizes the recipe.
func (c MegatronConfig) String() string {
	c = c.withDefaults()
	sched := ""
	if c.DualPipe {
		sched = " dualpipe"
	}
	return fmt.Sprintf("%s tp%d pp%d dp%d mb%d v%d sp=%t re=%t do=%t%s",
		c.Model.Name, c.TP, c.PP, c.DP(), c.MicroBatches, c.VirtualStages,
		c.SeqParallel, c.ActRecompute, c.DistOptimizer, sched)
}

// rankCoords is the 3D position of a global rank. Megatron orders
// tensor ranks fastest, then data, then pipeline.
type rankCoords struct {
	tp, dp, pp int
}

func (c MegatronConfig) coords(rank int) rankCoords {
	tp := rank % c.TP
	dp := (rank / c.TP) % c.DP()
	pp := rank / (c.TP * c.DP())
	return rankCoords{tp: tp, dp: dp, pp: pp}
}

func (c MegatronConfig) rankOf(co rankCoords) int {
	return co.pp*(c.TP*c.DP()) + co.dp*c.TP + co.tp
}

// tpGroup returns the global ranks of a coordinate's tensor group.
func (c MegatronConfig) tpGroup(co rankCoords) []int {
	g := make([]int, c.TP)
	for i := range g {
		g[i] = c.rankOf(rankCoords{tp: i, dp: co.dp, pp: co.pp})
	}
	return g
}

func (c MegatronConfig) dpGroup(co rankCoords) []int {
	g := make([]int, c.DP())
	for i := range g {
		g[i] = c.rankOf(rankCoords{tp: co.tp, dp: i, pp: co.pp})
	}
	return g
}

func (c MegatronConfig) ppGroup(co rankCoords) []int {
	g := make([]int, c.PP)
	for i := range g {
		g[i] = c.rankOf(rankCoords{tp: co.tp, dp: co.dp, pp: i})
	}
	return g
}

// embGroup ties the input and output embeddings across the first and
// last pipeline stages.
func (c MegatronConfig) embGroup(co rankCoords) []int {
	return []int{
		c.rankOf(rankCoords{tp: co.tp, dp: co.dp, pp: 0}),
		c.rankOf(rankCoords{tp: co.tp, dp: co.dp, pp: c.PP - 1}),
	}
}

// Megatron is the workload implementation.
type Megatron struct {
	cfg   MegatronConfig
	sched [][]Action
	// depth is the virtual pipeline depth; owner maps a virtual stage
	// to its physical rank within the pipeline group.
	depth int
	owner func(vs int) int
}

var (
	_ workload.Workload          = (*Megatron)(nil)
	_ workload.SelectiveLauncher = (*Megatron)(nil)
	_ workload.GroupAware        = (*Megatron)(nil)
	_ workload.ClassHinter       = (*Megatron)(nil)
	_ workload.Fingerprinter     = (*Megatron)(nil)
)

// NewMegatron validates the recipe and precomputes the pipeline
// schedule.
func NewMegatron(cfg MegatronConfig) (*Megatron, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Megatron{cfg: cfg}
	if cfg.DualPipe {
		m.depth, m.owner = 2*cfg.PP, dualPipeOwner(cfg.PP)
	} else {
		m.depth, m.owner = cfg.PP*cfg.VirtualStages, loopedOwner(cfg.PP)
	}
	m.sched = BuildPipelineScheduleOwner(cfg.PP, m.depth, cfg.MicroBatches, m.owner)
	return m, nil
}

// Name implements workload.Workload.
func (m *Megatron) Name() string { return "megatron/" + m.cfg.Model.Name }

// World implements workload.Workload.
func (m *Megatron) World() int { return m.cfg.NGPUs }

// UniqueRanks implements workload.SelectiveLauncher: tensor- and
// data-parallel peers perform identical work, so one rank per
// pipeline stage covers all behaviors (§7.4 of the paper).
func (m *Megatron) UniqueRanks() []int {
	out := make([]int, m.cfg.PP)
	for p := range out {
		out[p] = m.cfg.rankOf(rankCoords{pp: p})
	}
	return out
}

// RankClasses implements workload.ClassHinter: ranks that share a
// pipeline stage are equivalent — tensor- and data-parallel peers
// (including expert-parallel MoE peers, whose local expert counts and
// collective shapes match across the DP group) perform identical work
// modulo communicator identities, which trace signatures ignore.
// Unlike UniqueRanks this claim is verified by the pipeline's
// sampling, so it is safe under dynamic dedup.
func (m *Megatron) RankClasses() [][]int {
	cfg := m.cfg
	stage := cfg.TP * cfg.DP()
	classes := make([][]int, cfg.PP)
	for p := range classes {
		class := make([]int, stage)
		for i := range class {
			class[i] = p*stage + i
		}
		classes[p] = class
	}
	return classes
}

// Fingerprint implements workload.Fingerprinter: a canonical
// rendering of everything that shapes the emitted trace — the model
// geometry and every schedule/parallelism knob.
func (m *Megatron) Fingerprint() string {
	c := m.cfg
	mdl := c.Model
	return fmt.Sprintf(
		"megatron|%s,L%d,h%d,heads%d,ffn%d,seq%d,vocab%d,exp%d,topk%d,gated%t|ngpus%d,gb%d,tp%d,pp%d,mb%d,v%d,dual%t,sp%t,re%t,do%t,%s,it%d,noov%t",
		mdl.Name, mdl.Layers, mdl.Hidden, mdl.Heads, mdl.FFN, mdl.Seq, mdl.Vocab,
		mdl.NumExperts, mdl.ExpertTopK(), mdl.GatedMLP,
		c.NGPUs, c.GlobalBatch, c.TP, c.PP, c.MicroBatches, c.VirtualStages,
		c.DualPipe, c.SeqParallel, c.ActRecompute, c.DistOptimizer, c.DType,
		c.Iterations, c.NoDPOverlap)
}

// Probe implements workload.Prober: a single-iteration variant used
// by dynamic deduplication to discover duplicate workers cheaply.
func (m *Megatron) Probe() workload.Workload {
	if m.cfg.Iterations == 1 {
		return m
	}
	cfg := m.cfg
	cfg.Iterations = 1
	p, err := NewMegatron(cfg)
	if err != nil {
		// The config already validated; a failing probe is impossible.
		panic(fmt.Sprintf("framework: probe construction: %v", err))
	}
	return p
}

// CommGroups implements workload.GroupAware: the full communicator
// layout derived from the parallelism configuration, which is what
// lets selective launch keep collective topology exact.
func (m *Megatron) CommGroups() map[uint64][]int {
	cfg := m.cfg
	out := make(map[uint64][]int)
	add := func(tag string, g []int) {
		out[uint64(nccl.UniqueIDFor(tag, g))] = g
	}
	for rank := 0; rank < cfg.NGPUs; rank++ {
		co := cfg.coords(rank)
		if cfg.TP > 1 {
			add("tp", cfg.tpGroup(co))
		}
		if cfg.PP > 1 {
			add("pp", cfg.ppGroup(co))
			if co.pp == 0 || co.pp == cfg.PP-1 {
				add("emb", cfg.embGroup(co))
			}
		}
		if cfg.DP() > 1 {
			add("dp", cfg.dpGroup(co))
		}
		if cfg.Model.NumExperts > 0 && cfg.epDegree() > 1 {
			add("ep", cfg.epGroup(co))
		}
	}
	return out
}

// Run implements workload.Workload: the unmodified training script
// for one rank.
func (m *Megatron) Run(rank int, dev cuda.Device) error {
	if rank < 0 || rank >= m.cfg.NGPUs {
		return fmt.Errorf("megatron: rank %d out of range [0,%d)", rank, m.cfg.NGPUs)
	}
	r := newMegatronRunner(m, rank, dev)
	return r.run("megatron", m.cfg.Iterations, r.setup, r.iteration)
}
