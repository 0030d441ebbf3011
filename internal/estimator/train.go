package estimator

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"maya/internal/forest"
	"maya/internal/hardware"
	"maya/internal/prand"
	"maya/internal/trace"
)

// ProfileSample is one profiled observation: an operation descriptor
// plus its measured duration. For collectives, Ranks carries the
// participating global ranks (topology).
type ProfileSample struct {
	Op    trace.Op
	Ranks []int
	Dur   time.Duration
}

// Measurer dispatches an operation on "real hardware" and reports
// its runtime — Maya's transparent profiling mode. The synthetic
// silicon oracle implements it; a real GPU binding would too.
type Measurer interface {
	Measure(op *trace.Op, ranks []int, sampleID int64) time.Duration
}

// ProfileKind selects which microbenchmark families to sweep.
type ProfileKind int

// Profile families.
const (
	// ProfileLLM covers transformer training kernels (GEMMs,
	// norms, softmax, elementwise, embedding, optimizer) and
	// collectives — the Megatron-LM workloads.
	ProfileLLM ProfileKind = iota
	// ProfileVision covers convolutions, pooling, batch-norm, loss
	// and torch.compile Triton kernels.
	ProfileVision
	// ProfileAll covers both.
	ProfileAll
)

// Effective suite-training defaults. The forest package's generic
// defaults (24 trees, depth 14) are deliberately overridden here:
// per-kernel runtime surfaces are smooth enough that 16 shallower
// trees match the deeper ensemble's held-out MAPE at ~60% of the
// training cost, and a suite trains one forest per kernel class.
// These constants are the single source of truth for what
// TrainOptions' zero values mean; a test pins them.
const (
	// DefaultSuiteTrees is the per-kernel forest size suite training
	// uses when TrainOptions.Forest.Trees is zero.
	DefaultSuiteTrees = 16
	// DefaultSuiteMaxDepth is the tree-depth cap suite training uses
	// when TrainOptions.Forest.MaxDepth is zero.
	DefaultSuiteMaxDepth = 12
	// DefaultMinSamples is the minimum per-kernel sample count to
	// train a forest; rarer kernels use the analytical fallback.
	DefaultMinSamples = 40
)

// TrainOptions tunes suite training.
type TrainOptions struct {
	// Forest configures the per-kernel forests. Zero Trees/MaxDepth
	// take the suite defaults (DefaultSuiteTrees/DefaultSuiteMaxDepth,
	// not the forest package's generic 24/14); other zero fields take
	// the forest package's defaults.
	Forest forest.Options
	// MinSamples is the minimum per-kernel sample count to train a
	// forest (default DefaultMinSamples); rarer kernels use the
	// analytical fallback.
	MinSamples int
	// Workers bounds the training worker pool, which spans kernel
	// classes and trees jointly (<= 0 means runtime.GOMAXPROCS(0)).
	// Per-tree seeds are independently derived, so the trained suite
	// is byte-identical for every worker count.
	Workers int
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MinSamples == 0 {
		o.MinSamples = DefaultMinSamples
	}
	if o.Forest.Trees == 0 {
		o.Forest.Trees = DefaultSuiteTrees
	}
	if o.Forest.MaxDepth == 0 {
		o.Forest.MaxDepth = DefaultSuiteMaxDepth
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// TrainSuite fits per-kernel forests and the collective model from a
// profile. All (kernel class, tree) tasks run through one bounded
// worker pool (opts.Workers wide), so training scales with cores on
// both axes; the result is byte-identical to serial training.
func TrainSuite(profile []ProfileSample, cluster hardware.Cluster, opts TrainOptions) (*Suite, error) {
	opts = opts.withDefaults()
	byName := make(map[string][]forest.Sample)
	var colls []ProfileSample
	for i := range profile {
		ps := &profile[i]
		if ps.Dur <= 0 {
			continue
		}
		if ps.Op.Kind == trace.KindCollective {
			colls = append(colls, *ps)
			continue
		}
		byName[ps.Op.Name] = append(byName[ps.Op.Name], forest.Sample{
			X: KernelFeatures(&ps.Op),
			Y: math.Log(float64(ps.Dur)),
		})
	}
	s := &Suite{
		cluster: cluster,
		kernels: make(map[string]*forest.Forest, len(byName)),
		coll:    trainCollectiveModel(cluster, colls),
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []forest.TrainJob
	var jobNames []string
	for _, name := range names {
		samples := byName[name]
		if len(samples) < opts.MinSamples {
			continue
		}
		fopts := opts.Forest
		fopts.Seed = prand.Hash64("forest", cluster.Name, name)
		jobs = append(jobs, forest.TrainJob{Samples: samples, Opts: fopts})
		jobNames = append(jobNames, name)
	}
	forests, err := forest.TrainForests(jobs, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("estimator: training kernel forests: %w", err)
	}
	for i, name := range jobNames {
		s.kernels[name] = forests[i]
	}
	return s, nil
}

// TrainAndEvaluate splits the profile 80:20, trains on the larger
// share and reports held-out per-kernel MAPE — the evaluation behind
// the paper's Tables 7–9. The split is the shared seeded-permutation
// holdout (forest.SplitN), so it stays byte-identical to what
// forest.Split produces for the same seed and test count.
func TrainAndEvaluate(profile []ProfileSample, cluster hardware.Cluster, opts TrainOptions) (*Suite, map[string]float64, error) {
	train, test := forest.SplitN(profile, len(profile)/5, prand.Hash64("split", cluster.Name))
	s, err := TrainSuite(train, cluster, opts)
	if err != nil {
		return nil, nil, err
	}
	return s, s.MAPEByKernel(test), nil
}

// SyntheticProfile sweeps the heavy-hitter microbenchmark families —
// GEMMs, convolutions, Triton fusions, memory transfers and
// collectives — through the measurer, producing the dense part of
// the training corpus (Appendix B's ≈42k-point sweeps). The long tail
// of framework kernels is profiled by *scraping traces* of
// single-layer model runs (see the core package), exactly as the
// paper describes, so tail-kernel features match what workloads emit.
func SyntheticProfile(m Measurer, cluster hardware.Cluster, kind ProfileKind, seed uint64) []ProfileSample {
	g := &profileGen{
		m:       m,
		cluster: cluster,
		rng:     prand.New(prand.HashInts(seed, 0x9f0f11e)),
	}
	if kind == ProfileLLM || kind == ProfileAll {
		g.sweepGemms()
		g.sweepMemops()
		g.sweepCollectives()
	}
	if kind == ProfileVision || kind == ProfileAll {
		g.sweepConvs()
		g.sweepVisionGemms()
		g.sweepTriton()
		g.sweepMemops()
		g.sweepCollectives()
	}
	return g.out
}

type profileGen struct {
	m       Measurer
	cluster hardware.Cluster
	rng     *prand.SplitMix64
	out     []ProfileSample
	id      int64
}

func (g *profileGen) add(op trace.Op, ranks []int) {
	g.id++
	dur := g.m.Measure(&op, ranks, g.id)
	g.out = append(g.out, ProfileSample{Op: op, Ranks: ranks, Dur: dur})
}

func (g *profileGen) gemmOp(name string, batch, m, n, k int, dtype string) trace.Op {
	es := int64(hardware.DType(dtype).Size())
	b := int64(batch)
	return trace.OpOf(trace.KindKernel, &trace.Shape{
		Name:  name,
		Dims:  []int{batch, m, n, k},
		FLOPs: 2 * b * int64(m) * int64(n) * int64(k),
		Bytes: b * es * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)),
		DType: dtype,
	})
}

// logDim draws a dimension log-uniformly in [lo, hi], snapped to a
// multiple of 8 (framework shapes are).
func (g *profileGen) logDim(lo, hi int) int {
	l := math.Log2(float64(lo))
	h := math.Log2(float64(hi))
	d := int(math.Exp2(l + g.rng.Float64()*(h-l)))
	d = d / 8 * 8
	if d < lo {
		d = lo
	}
	return d
}

func (g *profileGen) sweepGemms() {
	dtypes := []string{"bf16", "fp16", "fp32"}
	for i := 0; i < 2200; i++ {
		dt := dtypes[i%len(dtypes)]
		m := g.logDim(64, 131072)
		n := g.logDim(64, 32768)
		k := g.logDim(64, 32768)
		name := "cublasGemmEx"
		if dt == "fp32" {
			name = "cublasSgemm_v2"
		}
		g.add(g.gemmOp(name, 1, m, n, k, dt), nil)
	}
	for i := 0; i < 1400; i++ {
		dt := dtypes[i%2] // batched attention matmuls are half precision
		b := 1 << uint(g.rng.Intn(8))
		m := g.logDim(64, 8192)
		n := g.logDim(16, 8192)
		k := g.logDim(16, 8192)
		g.add(g.gemmOp("cublasSgemmStridedBatched", b, m, n, k, dt), nil)
	}
	for i := 0; i < 500; i++ {
		m := g.logDim(64, 65536)
		n := g.logDim(64, 16384)
		k := g.logDim(64, 16384)
		g.add(g.gemmOp("cublasLtMatmul", 1, m, n, k, "bf16"), nil)
	}
}

func (g *profileGen) sweepConvs() {
	names := []string{"cudnnConvolutionForward", "cudnnConvolutionBackwardData", "cudnnConvolutionBackwardFilter"}
	for i := 0; i < 3600; i++ {
		name := names[i%3]
		n := 1 << uint(g.rng.Intn(8)) // batch 1..128
		c := 1 << uint(3+g.rng.Intn(8))
		k := 1 << uint(3+g.rng.Intn(8))
		hw := []int{7, 14, 28, 56, 112, 224}[g.rng.Intn(6)]
		r := []int{1, 3, 3, 7}[g.rng.Intn(4)]
		stride := 1 + g.rng.Intn(2)
		oh := (hw-r)/stride + 1
		if oh <= 0 {
			continue
		}
		es := int64(2)
		flops := 2 * int64(n) * int64(k) * int64(oh) * int64(oh) * int64(c) * int64(r) * int64(r)
		bytes := es * (int64(n)*int64(c)*int64(hw)*int64(hw) + int64(k)*int64(c)*int64(r)*int64(r) + int64(n)*int64(k)*int64(oh)*int64(oh))
		g.add(trace.OpOf(trace.KindKernel, &trace.Shape{
			Name:  name,
			Dims:  []int{n, c, hw, hw, k, r, r, stride, 0, oh, oh},
			FLOPs: flops,
			Bytes: bytes,
			DType: "fp16",
		}), nil)
	}
}

// sweepVisionGemms adds the dense-layer GEMM shapes vision training
// hits (classifier heads, small-batch fp32 paths).
func (g *profileGen) sweepVisionGemms() {
	for i := 0; i < 400; i++ {
		m := g.logDim(8, 4096)
		n := g.logDim(64, 8192)
		k := g.logDim(64, 8192)
		g.add(g.gemmOp("cublasSgemm_v2", 1, m, n, k, "fp32"), nil)
	}
	for i := 0; i < 300; i++ {
		m := g.logDim(8, 4096)
		n := g.logDim(64, 8192)
		k := g.logDim(64, 8192)
		g.add(g.gemmOp("cublasLtMatmul", 1, m, n, k, "fp16"), nil)
	}
}

// sweepTriton profiles compiler-fused kernels: runtime depends on the
// instruction mix, which the profile encodes as IR features
// (Appendix B's approach to generated-kernel explosion).
func (g *profileGen) sweepTriton() {
	for i := 0; i < 900; i++ {
		elems := int64(g.logDim(1024, 1<<26))
		instrs := float64(2 + g.rng.Intn(40))
		loads := float64(1 + g.rng.Intn(8))
		g.add(trace.OpOf(trace.KindKernel, &trace.Shape{
			Name:  "triton",
			Dims:  []int{int(elems)},
			Bytes: elems * int64(loads+1) * 2,
			FLOPs: elems * int64(instrs),
			DType: "fp16",
			Extra: map[string]float64{"triton_instrs": instrs, "triton_loads": loads},
		}), nil)
	}
}

func (g *profileGen) sweepMemops() {
	kinds := []string{"HtoD", "DtoH", "DtoD"}
	for _, k := range kinds {
		for i := 0; i < 260; i++ {
			bytes := int64(g.logDim(4096, 1<<30))
			g.add(trace.OpOf(trace.KindMemcpy, &trace.Shape{
				Name:    "Memcpy" + k,
				Bytes:   bytes,
				MemKind: k,
			}), nil)
		}
	}
	for i := 0; i < 200; i++ {
		bytes := int64(g.logDim(4096, 1<<30))
		g.add(trace.OpOf(trace.KindMemset, &trace.Shape{Name: "Memset", Bytes: bytes}), nil)
	}
}

// sweepCollectives profiles nccl-tests style: each op across
// participant counts, intra- and inter-node, over sizes from
// megabytes to gigabytes.
func (g *profileGen) sweepCollectives() {
	ops := []string{"ncclAllReduce", "ncclAllGather", "ncclReduceScatter", "ncclBroadcast", "ncclSend", "ncclAllToAll"}
	world := g.cluster.TotalGPUs()
	perNode := g.cluster.Node.GPUsPerNode

	var groups [][]int
	for _, n := range []int{2, 4, 8} {
		if n <= perNode {
			groups = append(groups, contiguous(0, n)) // intra-node
		}
	}
	if g.cluster.Nodes > 1 {
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			if n <= g.cluster.Nodes*perNode {
				stride := world / n
				if stride < 1 {
					stride = 1
				}
				groups = append(groups, strided(0, n, stride)) // spans nodes
			}
		}
	}
	for _, op := range ops {
		for _, ranks := range groups {
			if op == "ncclSend" && len(ranks) != 2 {
				continue
			}
			for exp := 10; exp <= 34; exp++ { // 1KB .. 16GB
				for rep := 0; rep < 2; rep++ {
					bytes := int64(1) << uint(exp)
					bytes += int64(g.rng.Intn(1 << uint(exp-2)))
					peer := -1
					if op == "ncclSend" {
						peer = 1
					}
					g.add(trace.Op{
						Kind:  trace.KindCollective,
						Name:  op,
						Bytes: bytes,
						Coll: &trace.Collective{
							Op: op, CommID: 1, Seq: 0,
							NRanks: len(ranks), Rank: 0, Peer: peer, Bytes: bytes,
						},
					}, ranks)
				}
			}
		}
	}
}

func contiguous(start, n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = start + i
	}
	return r
}

func strided(start, n, stride int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = start + i*stride
	}
	return r
}
