package framework

import (
	"maya/internal/cuda"
	"maya/internal/hardware"
	"maya/internal/nccl"
)

// megatronRunner executes one rank's training program on its shell.
type megatronRunner struct {
	*shell
	m   *Megatron
	cfg MegatronConfig

	co rankCoords
	// communicators; nil when the group is trivial
	tpc, dpc, ppc, embc, epc *nccl.Communicator

	dp, mbs        int
	layersPerChunk int
	chunksPerRank  int
	d              int // virtual pipeline depth
	es             int64

	myParams    int64
	chunkParams int64
	embParams   int64

	acts         map[[2]int]cuda.DevicePtr
	chunkBwdLeft []int
}

func newMegatronRunner(m *Megatron, rank int, dev cuda.Device) *megatronRunner {
	cfg := m.cfg
	r := &megatronRunner{
		shell: &shell{dev: dev, rank: rank},
		m:     m,
		cfg:   cfg,
		co:    cfg.coords(rank),
		dp:    cfg.DP(),
		mbs:   cfg.MicroBatchSize(),
		d:     m.depth,
		es:    hardware.DType(cfg.DType).Size(),
		acts:  make(map[[2]int]cuda.DevicePtr),
	}
	r.chunksPerRank = r.d / cfg.PP
	r.layersPerChunk = cfg.Model.Layers / r.d
	mlpMats := int64(2)
	if cfg.Model.GatedMLP {
		mlpMats = 3
	}
	h := int64(cfg.Model.Hidden)
	f := int64(cfg.Model.FFN)
	mlpParams := mlpMats * h * f / int64(cfg.TP)
	if cfg.Model.NumExperts > 0 {
		mlpParams = r.expertParamsPerLayer()
	}
	perLayer := 4*h*h/int64(cfg.TP) + mlpParams + 4*h
	r.chunkParams = int64(r.layersPerChunk) * perLayer
	r.embParams = int64(cfg.Model.Vocab)*h/int64(cfg.TP) + int64(cfg.Model.Seq)*h
	r.myParams = r.chunkParams * int64(r.chunksPerRank)
	if r.co.pp == m.owner(0) || r.co.pp == m.owner(r.d-1) {
		r.myParams += r.embParams
	}
	return r
}

func (r *megatronRunner) setup() {
	if r.open(); r.err != nil {
		return
	}

	// Process groups, Megatron initialization order.
	if r.cfg.TP > 1 {
		r.tpc = r.initComm("tp", r.cfg.tpGroup(r.co))
	}
	if r.cfg.PP > 1 {
		r.ppc = r.initComm("pp", r.cfg.ppGroup(r.co))
	}
	if r.dp > 1 {
		r.dpc = r.initComm("dp", r.cfg.dpGroup(r.co))
	}
	r.setupMoE()
	if r.cfg.PP > 1 && !r.cfg.DualPipe && (r.co.pp == 0 || r.co.pp == r.cfg.PP-1) {
		// First and last stage tie the embedding weights. Under
		// DualPipe both live on the same rank, so no group is needed.
		r.embc = r.initComm("emb", r.cfg.embGroup(r.co))
	}

	// Parameter, gradient and optimizer-state memory. Megatron keeps
	// bf16 params, fp32 main grads, and fp32 Adam state + master
	// params (sharded across DP with the distributed optimizer).
	r.malloc(r.myParams * r.es)
	r.malloc(r.myParams * 4)
	optBytes := r.myParams * 12
	if r.cfg.DistOptimizer && r.dp > 1 {
		optBytes = (optBytes + int64(r.dp) - 1) / int64(r.dp)
	}
	r.malloc(optBytes)
	r.endSetup()
}

// boundaryBytes is the size of the activation tensor crossing a
// pipeline-stage boundary.
func (r *megatronRunner) boundaryBytes() int64 {
	n := int64(r.mbs) * int64(r.cfg.Model.Seq)
	b := n * int64(r.cfg.Model.Hidden) * r.es
	if r.cfg.SeqParallel {
		b /= int64(r.cfg.TP)
	}
	return b
}

// chunkActBytes is the activation memory one microbatch pins in one
// virtual chunk between forward and backward.
func (r *megatronRunner) chunkActBytes(vs int) int64 {
	cfg := r.cfg
	s := float64(cfg.Model.Seq)
	h := float64(cfg.Model.Hidden)
	a := float64(cfg.Model.Heads)
	t := float64(cfg.TP)
	n := float64(r.mbs) * s // tokens per microbatch
	var perLayer float64
	switch {
	case cfg.ActRecompute:
		perLayer = 2 * n * h
		if cfg.SeqParallel {
			perLayer /= t
		}
	case cfg.SeqParallel:
		perLayer = n*h*34/t + 5*a*s*n/t
	default:
		perLayer = n*h*(10+24/t) + 5*a*s*n/t
	}
	total := float64(r.layersPerChunk)*perLayer + float64(r.boundaryBytes())
	if vs == r.d-1 {
		// Logits plus their gradient buffer for the vocab-parallel
		// loss.
		total += 2 * n * float64(cfg.Model.Vocab) / t * float64(r.es)
	}
	return int64(total)
}

// recomputeBufferBytes is the transient footprint of activation
// recomputation during backward: Megatron recomputes one layer at a
// time, so only a single layer's full activations are live.
func (r *megatronRunner) recomputeBufferBytes() int64 {
	cfg := r.cfg
	s := float64(cfg.Model.Seq)
	h := float64(cfg.Model.Hidden)
	a := float64(cfg.Model.Heads)
	t := float64(cfg.TP)
	n := float64(r.mbs) * s
	perLayer := n*h*(10+24/t) + 5*a*s*n/t
	if cfg.SeqParallel {
		perLayer = n*h*34/t + 5*a*s*n/t
	}
	return int64(perLayer)
}

// p2pTag builds the matching tag for the pipeline transfer whose
// consumer is virtual stage vs of microbatch mu (dir 0 = activations
// forward, 1 = gradients backward). Tags are unique per iteration so
// wait-map keys never collide.
func (r *megatronRunner) p2pTag(dir, vs, mu int) int {
	return ((r.iter*r.cfg.MicroBatches+mu)*r.d+vs)*2 + dir
}

func (r *megatronRunner) iteration() {
	cfg := r.cfg
	r.chunkBwdLeft = make([]int, r.chunksPerRank)
	for c := range r.chunkBwdLeft {
		r.chunkBwdLeft[c] = cfg.MicroBatches
	}
	for _, a := range r.m.sched[r.co.pp] {
		if r.err != nil {
			return
		}
		switch a.Kind {
		case ActForward:
			r.forward(a.VStage, a.Micro)
		case ActBackward:
			r.backward(a.VStage, a.Micro)
		}
	}
	r.gradSyncTail()
	r.optimizerStep()
	r.endIteration()
}

func (r *megatronRunner) forward(vs, mu int) {
	cfg := r.cfg
	// Receive boundary activations from the previous virtual stage,
	// unless it lives on this same rank (interleaving wrap) or this
	// is the first stage (data loader instead).
	if vs == 0 {
		// Token ids for the microbatch: host-to-device copy.
		n := int64(r.mbs) * int64(cfg.Model.Seq)
		buf := r.malloc(8 * n)
		r.check(r.dev.MemcpyAsync(buf, 0, 8*n, cuda.MemcpyHostToDevice, r.compute))
		r.free(buf)
	} else if src := r.m.owner(vs - 1); src != r.co.pp {
		r.check(r.ppc.RecvTagged(r.boundaryBytes(), src, r.p2pTag(0, vs, mu), r.compute))
	}

	act := r.malloc(r.chunkActBytes(vs))
	r.acts[[2]int{vs, mu}] = act

	if vs == 0 {
		r.emitEmbeddingForward()
	}
	for l := 0; l < r.layersPerChunk; l++ {
		r.emitLayerForward()
	}
	if vs == r.d-1 {
		r.emitHeadForward()
	}

	if vs < r.d-1 {
		if dst := r.m.owner(vs + 1); dst != r.co.pp {
			r.sendAsync(dst, r.p2pTag(0, vs+1, mu))
		}
	}
}

// sendAsync issues a pipeline send without blocking the compute
// stream: an event hands the data off to a fresh stream, reproducing
// torch.distributed's independent isends. Synchronous sends on the
// compute stream would head-of-line-deadlock 1F1B (send-forward
// queued ahead of recv-backward on both peers), and a single shared
// send stream recreates the same deadlock between interleaved chunks
// — each in-flight send must be independent, as NCCL channels are.
func (r *megatronRunner) sendAsync(dst, tag int) {
	if r.err != nil {
		return
	}
	s, err := r.dev.StreamCreate()
	r.check(err)
	r.handoff(r.compute, s)
	r.check(r.ppc.SendTagged(r.boundaryBytes(), dst, tag, s))
}

func (r *megatronRunner) backward(vs, mu int) {
	cfg := r.cfg
	if vs < r.d-1 {
		if src := r.m.owner(vs + 1); src != r.co.pp {
			r.check(r.ppc.RecvTagged(r.boundaryBytes(), src, r.p2pTag(1, vs, mu), r.compute))
		}
	}

	var recompute cuda.DevicePtr
	if cfg.ActRecompute {
		recompute = r.malloc(r.recomputeBufferBytes())
		for l := 0; l < r.layersPerChunk; l++ {
			r.emitLayerForward() // recomputation replays the forward
		}
	}
	if vs == r.d-1 {
		r.emitHeadBackward()
	}
	for l := 0; l < r.layersPerChunk; l++ {
		r.emitLayerBackward()
	}
	if vs == 0 {
		r.emitEmbeddingBackward()
	}
	if recompute != 0 {
		r.free(recompute)
	}

	key := [2]int{vs, mu}
	r.free(r.acts[key])
	delete(r.acts, key)

	if vs > 0 {
		if dst := r.m.owner(vs - 1); dst != r.co.pp {
			r.sendAsync(dst, r.p2pTag(1, vs-1, mu))
		}
	}

	// Overlapped gradient reduction: when a chunk's last microbatch
	// finishes backward, its gradient bucket reduces on the comm
	// stream while other chunks keep computing.
	chunk := vs / cfg.PP
	r.chunkBwdLeft[chunk]--
	if r.chunkBwdLeft[chunk] == 0 && r.dpc != nil && !cfg.NoDPOverlap {
		r.reduceChunkGrads(chunk, r.comm, true)
	}
}

// reduceChunkGrads reduces one chunk's fp32 gradient bucket across
// the DP group.
func (r *megatronRunner) reduceChunkGrads(chunk int, stream cuda.Stream, syncEvent bool) {
	if r.dpc == nil || r.err != nil {
		return
	}
	if syncEvent {
		r.handoff(r.compute, stream)
	}
	gradBytes := r.chunkParams * 4
	if r.cfg.DistOptimizer {
		r.check(r.dpc.ReduceScatter(gradBytes/int64(r.dp), stream))
	} else {
		r.check(r.dpc.AllReduce(gradBytes, stream))
	}
}

// gradSyncTail completes gradient synchronization after the pipeline
// drains: join the overlapped reductions (or do them all now), plus
// the tied-embedding all-reduce.
func (r *megatronRunner) gradSyncTail() {
	cfg := r.cfg
	if r.dpc != nil {
		if cfg.NoDPOverlap {
			for c := 0; c < r.chunksPerRank; c++ {
				r.reduceChunkGrads(c, r.compute, false)
			}
		} else {
			// Compute stream waits for the reduction stream.
			r.handoff(r.comm, r.compute)
		}
	}
	if r.embc != nil {
		r.check(r.embc.AllReduce(int64(cfg.Model.Vocab)*int64(cfg.Model.Hidden)/int64(cfg.TP)*4, r.compute))
	}
}

func (r *megatronRunner) optimizerStep() {
	cfg := r.cfg
	stepParams := r.myParams
	if cfg.DistOptimizer && r.dp > 1 {
		stepParams = (stepParams + int64(r.dp) - 1) / int64(r.dp)
	}
	r.adamStep(stepParams, r.dpc)
	if cfg.DistOptimizer && r.dpc != nil {
		// Re-materialize bf16 params from the sharded master copy.
		r.check(r.dpc.AllGather(r.myParams*r.es/int64(r.dp), r.compute))
	}
}
