// Package silicon is the synthetic hardware that stands in for the
// paper's real GPU clusters (see DESIGN.md, substitutions). It plays
// three roles:
//
//   - ground truth: a deterministic timing oracle maps every kernel,
//     memory operation and collective to its "true" duration on a
//     given cluster — a roofline model dressed with per-architecture
//     quirks, tile-quantization effects and size-dependent
//     inefficiencies that a learned estimator can mostly, but not
//     fully, recover;
//   - profiler: Measure adds measurement noise on top of the truth,
//     producing the microbenchmark samples estimators train on
//     (Maya's transparent profiling mode);
//   - deployment: the oracle as the annotate walk's timer plus the
//     simulator's physical mode (PhysicalOptions: launch jitter, SM
//     contention) realize "run the workload on the real cluster and
//     time it", the baseline every prediction experiment compares
//     against.
//
// The oracle is intentionally *not* importable by the estimator
// training features: estimators see only profiled samples, never the
// formula, mirroring the epistemic position of the real system.
package silicon

import (
	"context"
	"math"
	"time"

	"maya/internal/hardware"
	"maya/internal/prand"
	"maya/internal/sim"
	"maya/internal/trace"
)

// DefaultSeed is the canonical silicon seed: every experiment models
// the same "hardware", and systems that profile real machines (Maya's
// estimators, Proteus) observe the same truth.
const DefaultSeed uint64 = 0xC1A0

// Oracle produces ground-truth timings for one cluster.
type Oracle struct {
	cluster hardware.Cluster
	seed    uint64
}

// NewOracle builds the timing oracle. The seed shapes the hidden
// quirk structure: different seeds are "different silicon".
func NewOracle(cluster hardware.Cluster, seed uint64) *Oracle {
	return &Oracle{cluster: cluster, seed: seed}
}

// kernelClass buckets kernels by execution character.
type kernelClass int

const (
	classGemm kernelClass = iota
	classConv
	classNorm
	classSoftmax
	classElementwise
	classReduce
	classEmbedding
	classSort
	classTriton
	classLoss
	classPool
	classOther
)

func classify(name string) kernelClass {
	switch name {
	case "cublasSgemm_v2", "cublasGemmEx", "cublasSgemmStridedBatched", "cublasLtMatmul":
		return classGemm
	case "cudnnConvolutionForward", "cudnnConvolutionBackwardData", "cudnnConvolutionBackwardFilter":
		return classConv
	case "cuApplyLayerNorm", "cuComputeGradInput", "cuComputePartGradGammaBeta",
		"cuComputeGradGammaBeta", "batchnorm_fwd", "batchnorm_bwd":
		return classNorm
	case "masked_softmax_warp_forward", "masked_softmax_warp_backward",
		"scaled_masked_softmax_warp_forward", "scaled_masked_softmax_warp_backward",
		"softmax_warp_forward", "softmax_warp_backward":
		return classSoftmax
	case "vectorized_elementwise_kernel", "unrolled_elementwise_kernel", "elementwise_kernel",
		"elementwise_kernel_with_index", "fused_dropout_kernel_vec", "triu_tril_kernel",
		"index_elementwise_kernel", "CatArrayBatchedCopy", "CatArrayBatchedCopy_aligned16_contig",
		"distribution_elementwise_grid_stride_kernel":
		return classElementwise
	case "reduce_kernel", "multi_tensor_apply_kernel", "tensor_kernel_scan_innermost_dim":
		return classReduce
	case "indexSelectLargeIndex", "compute_grad_weight", "sum_and_scatter",
		"krn_partial_segment_offset", "krn_partials_per_segment",
		"compute_num_of_partial_segments", "write_num_of_segments":
		return classEmbedding
	case "RadixSortOnesweepKernel", "RadixSortHistogramKernel", "RadixSortExclusiveSumKernel",
		"at_cuda_detailcubDeviceScanKernel", "at_cuda_detailcubDeviceScanInitKernel",
		"thrustcuda_cubcore_kernel_agent":
		return classSort
	case "triton":
		return classTriton
	case "nll_loss_forward_reduce_cuda_kernel_2d", "nll_loss_backward_reduce_cuda_kernel_2d":
		return classLoss
	case "pooling_fwd_nhwc", "max_pool_backward_nhwc":
		return classPool
	default:
		return classOther
	}
}

// computeEff returns the fraction of peak FLOPs a class reaches on an
// architecture.
func (o *Oracle) computeEff(c kernelClass) float64 {
	arch := o.cluster.Node.GPU.Arch
	switch c {
	case classGemm:
		switch arch {
		case hardware.Hopper:
			return 0.72
		case hardware.Ampere:
			return 0.66
		default:
			return 0.62
		}
	case classConv:
		switch arch {
		case hardware.Hopper:
			return 0.58
		case hardware.Ampere:
			return 0.55
		default:
			return 0.50
		}
	case classTriton:
		return 0.45
	default:
		return 0.30
	}
}

// memEff returns the fraction of peak HBM bandwidth a class reaches.
func (o *Oracle) memEff(c kernelClass) float64 {
	switch c {
	case classElementwise, classReduce:
		return 0.78
	case classNorm, classSoftmax:
		return 0.62
	case classEmbedding:
		return 0.38
	case classSort:
		return 0.30
	case classTriton:
		return 0.80
	case classLoss, classPool:
		return 0.55
	default:
		return 0.50
	}
}

// tileUtil models tile-quantization losses for GEMM-like kernels:
// dimensions that do not fill the tensor-core tiles waste cycles.
func tileUtil(dims []int) float64 {
	// dims = [batch, m, n, k] for GEMMs; convs carry their own layout
	// and skip this (their eff already reflects implicit GEMM).
	if len(dims) < 4 {
		return 1
	}
	m, n, k := dims[1], dims[2], dims[3]
	u := func(d, tile int) float64 {
		if d <= 0 {
			return 1
		}
		full := (d + tile - 1) / tile * tile
		return float64(d) / float64(full)
	}
	util := (u(m, 128) + u(n, 128) + u(k, 64)) / 3
	// Very skinny GEMMs lose additional occupancy.
	if m < 64 || n < 64 {
		util *= 0.7
	}
	return util
}

// quirk is the hidden structure of the silicon: a smooth
// shape-dependent component (learnable from profiles) plus a rough
// component (irreducible estimator error), both deterministic in the
// seed, the architecture and the kernel identity. Short kernels are
// noisier, matching the paper's observation that tiny kernels carry
// large percentage errors.
func (o *Oracle) quirk(name string, dims []int, baseNS float64) float64 {
	h := prand.Hash64("quirk", string(o.cluster.Node.GPU.Arch), name)
	rng := prand.New(h)
	smooth := 0.0
	for i, d := range dims {
		if i >= 6 {
			break
		}
		freq := 0.5 + rng.Float64()*1.5
		phase := rng.Float64() * 2 * math.Pi
		ld := math.Log2(float64(d) + 1)
		smooth += 0.035 * math.Sin(freq*ld+phase)
	}
	// Rough component: a deterministic per-shape wiggle the regressor
	// cannot resolve. Amplitude grows as kernels shrink. This is the
	// irreducible estimator error that keeps end-to-end prediction in
	// the paper's few-percent band rather than artificially exact.
	smallness := 1.0 / (1.0 + baseNS/5000.0) // ~1 below 5us, ->0 for long kernels
	roughAmp := 0.045 + 0.12*smallness
	rh := h
	for _, d := range dims {
		rh = prand.HashInts(rh, int64(d))
	}
	rough := (prand.New(rh).Float64()*2 - 1) * roughAmp
	f := 1 + smooth + rough
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// KernelTime returns the true duration of a device op (kernel,
// memcpy or memset) on this silicon, without measurement noise: a
// function of the op's kind and shape.
func (o *Oracle) KernelTime(op *trace.Op) time.Duration {
	gpu := o.cluster.Node.GPU
	s := op.ShapeOrZero()
	switch op.Kind {
	case trace.KindMemcpy:
		return o.memcpyTime(s)
	case trace.KindMemset:
		bw := gpu.MemBWGBps * 1e9 * 0.85
		ns := float64(s.Bytes)/bw*1e9 + 1500
		return time.Duration(ns)
	case trace.KindKernel:
		// handled below
	default:
		return 0
	}

	c := classify(s.Name)
	dt := hardware.DType(s.DType)
	if dt == "" {
		dt = hardware.FP32
	}
	peak := gpu.PeakTFLOPS(dt) * 1e12
	bw := gpu.MemBWGBps * 1e9

	ce := o.computeEff(c)
	if c == classGemm {
		ce *= tileUtil(s.Dims)
	}
	if c == classTriton && s.Extra != nil {
		// Fused kernels: heavier instruction mixes run slower per
		// element; the instruction count is the feature the paper
		// extracts from the compiler IR.
		if instr, ok := s.Extra["triton_instrs"]; ok && instr > 0 {
			ce /= 1 + 0.04*instr
		}
	}

	tc := 0.0
	if s.FLOPs > 0 && peak > 0 {
		tc = float64(s.FLOPs) / (peak * ce)
	}
	tm := 0.0
	if s.Bytes > 0 {
		tm = float64(s.Bytes) / (bw * o.memEff(c))
	}
	ns := math.Max(tc, tm) * 1e9
	ns += float64(gpu.LaunchOverhead.Nanoseconds())
	ns *= o.quirk(s.Name, s.Dims, ns)
	if ns < 800 {
		ns = 800 // floor: nothing completes faster than a short kernel
	}
	return time.Duration(ns)
}

func (o *Oracle) memcpyTime(s *trace.Shape) time.Duration {
	node := o.cluster.Node
	var bwGBps float64
	var lat float64
	switch s.MemKind {
	case "HtoD", "DtoH":
		bwGBps = node.PCIeGBps * 0.8
		lat = 8000
	case "DtoD":
		bwGBps = node.GPU.MemBWGBps * 0.65
		lat = 2000
	default: // HtoH
		bwGBps = 20
		lat = 1000
	}
	ns := float64(s.Bytes)/(bwGBps*1e9)*1e9 + lat
	ns *= o.quirk("Memcpy"+s.MemKind, []int{int(s.Bytes >> 12)}, ns)
	return time.Duration(ns)
}

// CollectiveTime returns the true on-the-wire duration of a
// collective among the given global ranks.
func (o *Oracle) CollectiveTime(opName string, bytes int64, ranks []int) time.Duration {
	n := len(ranks)
	if n <= 1 {
		return 10 * time.Microsecond
	}
	node := o.cluster.Node
	intra := o.allSameNode(ranks)

	var busBW float64 // GB/s along the algorithm's bottleneck
	var lat float64   // ns per algorithm step
	if intra {
		busBW, lat = o.intraBus(n, ranks)
	} else {
		// Real NCCL runs the bandwidth-bound collectives
		// hierarchically when a multi-node communicator has several
		// ranks per node: an NVLink phase inside each node and an
		// inter-node phase on 1/perNode of the payload.
		if nodes := o.nodeSpan(ranks); nodes > 1 && n > nodes {
			switch opName {
			case "ncclAllReduce", "ncclAllGather", "ncclReduceScatter":
				return o.hierCollectiveTime(opName, bytes, n, nodes)
			}
		}
		busBW = node.Inter.PerGPUGBps * 0.80
		lat = float64(node.Inter.BaseLatency.Nanoseconds()) + 6000
	}

	steps := math.Ceil(math.Log2(float64(n)))
	frac := float64(n-1) / float64(n)
	var ns float64
	switch opName {
	case "ncclAllReduce":
		ns = 2 * frac * float64(bytes) / (busBW * 1e9) * 1e9
		ns += 2 * steps * lat
	case "ncclAllGather", "ncclReduceScatter":
		ns = frac * float64(bytes) * float64(n) / (busBW * 1e9) * 1e9
		ns += steps * lat
	case "ncclBroadcast":
		ns = float64(bytes)/(busBW*1e9)*1e9 + steps*lat
	case "ncclAllToAll":
		ns = 1.5*frac*float64(bytes)*float64(n)/(busBW*1e9)*1e9 + float64(n)*lat
	case "ncclSend", "ncclRecv":
		link := busBW
		if !intra {
			link = node.Inter.PerGPUGBps * 0.85
		}
		ns = float64(bytes)/(link*1e9)*1e9 + lat
	default:
		ns = frac*float64(bytes)/(busBW*1e9)*1e9 + steps*lat
	}

	// Size/participant-bucket quirks: protocol switches (LL, LL128,
	// Simple) create steps in real NCCL bandwidth curves.
	return time.Duration(ns * o.wiggle(opName, bytes, n, intra))
}

// wiggle is the size/participant-bucket quirk factor: protocol
// switches (LL, LL128, Simple) create steps in real NCCL bandwidth
// curves.
func (o *Oracle) wiggle(opName string, bytes int64, n int, intra bool) float64 {
	bucket := 0
	if bytes > 0 {
		bucket = int(math.Log2(float64(bytes))) / 2
	}
	h := prand.Hash64("coll", string(o.cluster.Node.GPU.Arch), opName)
	h = prand.HashInts(h, int64(bucket), int64(n), boolToInt(intra))
	return 1 + (prand.New(h).Float64()*2-1)*0.06
}

// intraBus returns the bus bandwidth (GB/s) and per-step latency (ns)
// of an intra-node collective among n ranks.
func (o *Oracle) intraBus(n int, ranks []int) (busBW, lat float64) {
	node := o.cluster.Node
	switch node.Topology {
	case hardware.NVSwitch:
		return node.GPU.NVLinkGBps * 0.85, 4500
	case hardware.CubeMesh:
		return node.GPU.NVLinkGBps * 0.55, 6000
	case hardware.PairwiseNVLink:
		if n == 2 && paired(ranks) {
			return node.GPU.NVLinkGBps * 0.80, 8000
		}
		return node.PCIeGBps * 0.65, 8000
	default:
		return node.PCIeGBps * 0.65, 9000
	}
}

// hierCollectiveTime is the two-phase truth for bandwidth-bound
// collectives on multi-node groups with several ranks per node:
// phase 1 inside each node over NVLink, phase 2 across nodes on
// 1/perNode of the payload.
func (o *Oracle) hierCollectiveTime(opName string, bytes int64, n, nodes int) time.Duration {
	node := o.cluster.Node
	m := (n + nodes - 1) / nodes // ranks per node
	intraBW, intraLat := o.intraBus(m, nil)
	interBW := node.Inter.PerGPUGBps * 0.80
	interLat := float64(node.Inter.BaseLatency.Nanoseconds()) + 6000
	b := float64(bytes)
	fm := float64(m-1) / float64(m)
	fn := float64(nodes-1) / float64(nodes)
	sm := math.Ceil(math.Log2(float64(m)))
	sn := math.Ceil(math.Log2(float64(nodes)))
	var ns float64
	switch opName {
	case "ncclAllReduce":
		ns = 2*fm*b/(intraBW*1e9)*1e9 + 2*sm*intraLat
		ns += 2*fn*(b/float64(m))/(interBW*1e9)*1e9 + 2*sn*interLat
	case "ncclAllGather", "ncclReduceScatter":
		out := b * float64(n)
		ns = fm*out/(intraBW*1e9)*1e9 + sm*intraLat
		ns += fn*(out/float64(m))/(interBW*1e9)*1e9 + sn*interLat
	}
	return time.Duration(ns * o.wiggle(opName, bytes, n, false))
}

// nodeSpan counts the nodes a (stride-ordered) rank set touches.
func (o *Oracle) nodeSpan(ranks []int) int {
	cnt, last := 0, -1
	for _, r := range ranks {
		if nd := o.cluster.NodeOf(r); nd != last {
			cnt++
			last = nd
		}
	}
	return cnt
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (o *Oracle) allSameNode(ranks []int) bool {
	if len(ranks) == 0 {
		return true
	}
	n0 := o.cluster.NodeOf(ranks[0])
	for _, r := range ranks[1:] {
		if o.cluster.NodeOf(r) != n0 {
			return false
		}
	}
	return true
}

// paired reports whether two ranks share a pairwise NVLink bridge
// (adjacent even/odd local ordinals).
func paired(ranks []int) bool {
	if len(ranks) != 2 {
		return false
	}
	a, b := ranks[0], ranks[1]
	if a > b {
		a, b = b, a
	}
	return a%2 == 0 && b == a+1
}

// Measure returns a profiled observation of an op: truth plus
// log-normal measurement noise, distinct per sampleID. ranks supply
// collective topology and may be nil for compute ops.
func (o *Oracle) Measure(op *trace.Op, ranks []int, sampleID int64) time.Duration {
	var truth time.Duration
	if op.Kind == trace.KindCollective {
		truth = o.CollectiveTime(op.Coll.Op, op.Coll.Bytes, ranks)
	} else {
		truth = o.KernelTime(op)
	}
	h := prand.Hash64("measure", op.Name)
	h = prand.HashInts(h, int64(op.Bytes), int64(op.ShapeOrZero().FLOPs), sampleID, int64(o.seed))
	z := prand.New(h).NormFloat64()
	return time.Duration(float64(truth) * math.Exp(0.015*z))
}

// EstimateKernel and EstimateCollective make the oracle a trace.Timer
// — the same seam the learned suite fills, answered with the truth —
// so one annotate walk and one per-capture plan serve predictions,
// oracle rows and physical replays alike. The silicon times the ranks
// it is given; the declared group size is a learned timer's crutch.
func (o *Oracle) EstimateKernel(op *trace.Op) time.Duration { return o.KernelTime(op) }

func (o *Oracle) EstimateCollective(opName string, bytes int64, ranks []int, _ int) time.Duration {
	return o.CollectiveTime(opName, bytes, ranks)
}

// AnnotateInto is trace.Annotate with the oracle as the timer: the
// direct, un-planned walk. Product code fills from the capture's
// oracle plan instead; this exists for bench/'s
// sim.oracle_annotate_ms rung and as the tests' reference.
func (o *Oracle) AnnotateInto(ctx context.Context, job *trace.Job, comms map[uint64][]int, sizes map[uint64]int, ann *trace.Annotations) error {
	return trace.Annotate(ctx, job, comms, sizes, o, ann)
}

// PhysicalOptions returns the simulator options for "actual"
// deployment runs: effects present on hardware that Maya's predictor
// intentionally omits (§8 of the paper).
func PhysicalOptions(seed uint64) sim.Options {
	return sim.Options{
		JitterFrac:     0.012,
		CommContention: 0.06,
		Seed:           seed,
	}
}
