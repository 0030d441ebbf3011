package framework

// Mixture-of-experts layers (extension; paper §8 "Dynamic control
// flow"). Maya cannot model host-side gating whose control flow
// depends on tensor values, but expert-parallel MoE kernels with
// device-side routing keep control flow deterministic — the case the
// paper identifies as supported. Routing is modeled as balanced:
// every rank processes tokens*topk/ep tokens after dispatch, the same
// assumption expert-parallel kernel libraries make for capacity
// planning.

// epDegree returns the expert-parallel width: experts shard across
// the largest divisor of the DP degree that divides the expert count
// (replicated beyond that).
func (c MegatronConfig) epDegree() int {
	if c.Model.NumExperts == 0 {
		return 1
	}
	ep := gcd(c.DP(), c.Model.NumExperts)
	if ep < 1 {
		ep = 1
	}
	return ep
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// epGroup returns this coordinate's expert-parallel block: a
// contiguous slice of its data-parallel group.
func (c MegatronConfig) epGroup(co rankCoords) []int {
	ep := c.epDegree()
	dpg := c.dpGroup(co)
	block := (co.dp / ep) * ep
	return dpg[block : block+ep]
}

// setupMoE initializes the expert-parallel communicator.
func (r *megatronRunner) setupMoE() {
	if r.cfg.Model.NumExperts == 0 || r.cfg.epDegree() <= 1 {
		return
	}
	r.epc = r.initComm("ep", r.cfg.epGroup(r.co))
}

// expertParamsPerLayer is this rank's MoE parameter share per layer.
func (r *megatronRunner) expertParamsPerLayer() int64 {
	mdl := r.cfg.Model
	if mdl.NumExperts == 0 {
		return 0
	}
	mats := int64(2)
	if mdl.GatedMLP {
		mats = 3
	}
	localExperts := int64(mdl.NumExperts / r.cfg.epDegree())
	h := int64(mdl.Hidden)
	f := int64(mdl.FFN)
	return localExperts*mats*h*f/int64(r.cfg.TP) + h*int64(mdl.NumExperts) // experts + replicated router
}

// emitMoEForward replaces the dense MLP block: router, dispatch
// all-to-all, local expert FFNs, combine all-to-all.
func (r *megatronRunner) emitMoEForward() {
	cfg := r.cfg
	mdl := cfg.Model
	t := cfg.TP
	n := r.tokens()
	h := mdl.Hidden
	f := mdl.FFN
	e := mdl.NumExperts
	topk := mdl.ExpertTopK()
	ep := cfg.epDegree()

	// Router: per-token expert scores plus device-side top-k.
	r.gemm(n, e, h)
	logits := int64(n) * int64(e)
	r.kernel("softmax_warp_forward", []int{n, e}, 2*r.es*logits, 5*logits, cfg.DType)
	r.kernel("RadixSortOnesweepKernel", []int{n, e}, 16*int64(n), 4*logits, cfg.DType)
	r.kernel("elementwise_kernel_with_index", []int{n, topk}, 8*int64(n)*int64(topk), 0, cfg.DType)

	routed := n * topk
	if r.epc != nil {
		// Dispatch: tokens shuffle to their experts' owners.
		r.check(r.epc.AllToAll(int64(routed)*int64(h)*r.es/int64(ep), r.compute))
	}
	// Local expert FFNs over the balanced shard.
	local := routed / ep
	if local < 1 {
		local = 1
	}
	r.gemm(local, f/t, h)
	if mdl.GatedMLP {
		r.gemm(local, f/t, h)
		r.kernel("vectorized_elementwise_kernel", []int{local, f / t}, 3*r.es*int64(local)*int64(f/t), int64(local)*int64(f/t), cfg.DType)
	}
	r.kernel("vectorized_elementwise_kernel", []int{local, f / t}, 2*r.es*int64(local)*int64(f/t), 8*int64(local)*int64(f/t), cfg.DType)
	r.gemm(local, h, f/t)
	r.tpForwardSync()
	if r.epc != nil {
		// Combine: expert outputs return to their tokens.
		r.check(r.epc.AllToAll(int64(routed)*int64(h)*r.es/int64(ep), r.compute))
	}
	// Weighted combination of top-k expert outputs.
	r.kernel("vectorized_elementwise_kernel", []int{n, h}, 3*r.es*int64(n)*int64(h), int64(n)*int64(h)*int64(topk), cfg.DType)
}

// emitMoEBackward mirrors the forward with gradient GEMM pairs.
func (r *megatronRunner) emitMoEBackward() {
	cfg := r.cfg
	mdl := cfg.Model
	t := cfg.TP
	n := r.tokens()
	h := mdl.Hidden
	f := mdl.FFN
	e := mdl.NumExperts
	topk := mdl.ExpertTopK()
	ep := cfg.epDegree()

	r.kernel("vectorized_elementwise_kernel", []int{n, h}, 3*r.es*int64(n)*int64(h), int64(n)*int64(h)*int64(topk), cfg.DType)
	routed := n * topk
	if r.epc != nil {
		r.check(r.epc.AllToAll(int64(routed)*int64(h)*r.es/int64(ep), r.compute))
	}
	local := routed / ep
	if local < 1 {
		local = 1
	}
	r.gemm(local, f/t, h) // fc2 dgrad
	r.gemm(h, f/t, local) // fc2 wgrad
	r.kernel("vectorized_elementwise_kernel", []int{local, f / t}, 3*r.es*int64(local)*int64(f/t), 10*int64(local)*int64(f/t), cfg.DType)
	if mdl.GatedMLP {
		r.gemm(local, h, f/t)
		r.gemm(h, f/t, local)
	}
	r.gemm(local, h, f/t) // fc1 dgrad
	r.gemm(h, f/t, local) // fc1 wgrad
	r.tpBackwardSync()
	if r.epc != nil {
		r.check(r.epc.AllToAll(int64(routed)*int64(h)*r.es/int64(ep), r.compute))
	}
	// Router backward.
	logits := int64(n) * int64(e)
	r.kernel("softmax_warp_backward", []int{n, e}, 3*r.es*logits, 6*logits, cfg.DType)
	r.gemm(n, h, e)
	r.gemm(h, e, n)
}
