package framework

// CNN kernel emission: the cuDNN convolution call sequences, batch
// normalization, pooling and classifier/loss kernels vision training
// produces — and, under torch.compile, the Triton fusions that
// replace pointwise chains (Appendix B's A40 kernel inventory).

import (
	"fmt"

	"maya/internal/cuda"
	"maya/internal/cudnn"
	"maya/internal/models"
)

// convShape tracks one convolution's geometry while walking a CNN.
type convShape struct {
	n, c, hw, k, ksize, stride int
}

func (r *dpRunner) convKernel(sh convShape, which string) {
	if r.err != nil {
		return
	}
	x := r.cudnnTensor(sh.n, sh.c, sh.hw)
	f := r.cudnnFilter(sh.k, sh.c, sh.ksize)
	cd := r.cudnnConv(sh.ksize/2, sh.stride)
	if r.err != nil {
		return
	}
	switch which {
	case "fwd":
		r.check(r.dnn.ConvolutionForward(x, f, cd))
	case "bwdData":
		r.check(r.dnn.ConvolutionBackwardData(x, f, cd))
	case "bwdFilter":
		r.check(r.dnn.ConvolutionBackwardFilter(x, f, cd))
	default:
		r.check(fmt.Errorf("framework: unknown conv pass %q", which))
	}
}

func (r *dpRunner) cudnnTensor(n, c, hw int) *cudnn.TensorDesc {
	t := cudnn.NewTensorDesc()
	r.check(t.Set4D(n, c, hw, hw, r.cfg.DType))
	return t
}

func (r *dpRunner) cudnnFilter(k, c, ksize int) *cudnn.FilterDesc {
	f := cudnn.NewFilterDesc()
	r.check(f.Set4D(k, c, ksize, ksize))
	return f
}

func (r *dpRunner) cudnnConv(pad, stride int) *cudnn.ConvDesc {
	cd := cudnn.NewConvDesc()
	r.check(cd.Set2D(pad, pad, stride, stride))
	return cd
}

// bnAct emits batch-norm + activation for an NCHW tensor. Under
// torch.compile the pair fuses into one Triton kernel whose runtime
// features are its IR instruction counts.
func (r *dpRunner) bnAct(n, c, hw int, fwd bool) {
	elems := int64(n) * int64(c) * int64(hw) * int64(hw)
	if r.cfg.Compile {
		instrs, loads := 9.0, 3.0
		if !fwd {
			instrs, loads = 14.0, 5.0
		}
		r.tritonKernel(elems, instrs, loads)
		return
	}
	if fwd {
		r.kernel("batchnorm_fwd", []int{n, c, hw, hw}, 3*r.es*elems, 8*elems, r.cfg.DType)
		r.kernel("vectorized_elementwise_kernel", []int{int(elems)}, 2*r.es*elems, elems, r.cfg.DType)
	} else {
		r.kernel("batchnorm_bwd", []int{n, c, hw, hw}, 4*r.es*elems, 10*elems, r.cfg.DType)
		r.kernel("vectorized_elementwise_kernel", []int{int(elems)}, 3*r.es*elems, elems, r.cfg.DType)
	}
}

// tritonKernel emits a compiler-fused kernel with IR features.
func (r *dpRunner) tritonKernel(elems int64, instrs, loads float64) {
	r.launch(cuda.KernelDesc{
		Name:  "triton",
		Dims:  []int{int(elems)},
		Bytes: elems * int64(loads+1) * r.es,
		FLOPs: elems * int64(instrs),
		DType: r.cfg.DType,
		Extra: map[string]float64{"triton_instrs": instrs, "triton_loads": loads},
	})
}

// residualAdd for CNN skip connections.
func (r *dpRunner) cnnResidual(elems int64) {
	if r.cfg.Compile {
		r.tritonKernel(elems, 3, 2)
		return
	}
	r.kernel("vectorized_elementwise_kernel", []int{int(elems)}, 3*r.es*elems, elems, r.cfg.DType)
}

// setupCNN builds the per-stage blocks of the configured CNN.
func (r *dpRunner) setupCNN() {
	mdl := r.cfg.CNN
	n := r.mbs
	res := mdl.Input

	// Stem: conv + bn/act + max pool.
	stem := mdl.Stem
	stemRes := res / stem.Stride
	poolRes := stemRes / 2
	stemShape := convShape{n: n, c: stem.In, hw: res, k: stem.Out, ksize: stem.Kernel, stride: stem.Stride}
	r.blocks = append(r.blocks, dpBlock{
		name:     "stem",
		params:   int64(stem.In) * int64(stem.Out) * int64(stem.Kernel) * int64(stem.Kernel),
		actBytes: 2 * int64(n) * int64(stem.Out) * int64(stemRes) * int64(stemRes) * r.es,
		emitFwd: func() {
			r.convKernel(stemShape, "fwd")
			r.bnAct(n, stem.Out, stemRes, true)
			r.kernel("pooling_fwd_nhwc", []int{n, stem.Out, stemRes, stemRes, 3, 2},
				2*int64(n)*int64(stem.Out)*int64(stemRes)*int64(stemRes)*r.es, 0, r.cfg.DType)
		},
		emitBwd: func() {
			r.kernel("max_pool_backward_nhwc", []int{n, stem.Out, poolRes, poolRes, 3, 2},
				3*int64(n)*int64(stem.Out)*int64(poolRes)*int64(poolRes)*r.es, 0, r.cfg.DType)
			r.bnAct(n, stem.Out, stemRes, false)
			r.convKernel(stemShape, "bwdData")
			r.convKernel(stemShape, "bwdFilter")
		},
	})
	res = poolRes

	for si := range mdl.Stages {
		st := mdl.Stages[si]
		inRes := res
		outRes := res / st.Stride
		r.blocks = append(r.blocks, r.cnnStageBlock(si, st, n, inRes, outRes))
		res = outRes
	}

	// Head: global pool, classifier (and VGG-style dense stack), loss.
	last := mdl.Stages[len(mdl.Stages)-1].Out
	finalRes := res
	classes := mdl.Classes
	fcHidden := mdl.FCHidden
	headParams := int64(last) * int64(classes)
	if fcHidden > 0 {
		headParams = int64(last)*49*int64(fcHidden) + int64(fcHidden)*int64(fcHidden) + int64(fcHidden)*int64(classes)
	}
	r.blocks = append(r.blocks, dpBlock{
		name:     "head",
		params:   headParams,
		actBytes: int64(n) * int64(last+classes+fcHidden) * r.es * 2,
		emitFwd: func() {
			r.kernel("pooling_fwd_nhwc", []int{n, last, finalRes, finalRes, finalRes, 1},
				int64(n)*int64(last)*int64(finalRes)*int64(finalRes)*r.es, 0, r.cfg.DType)
			if fcHidden > 0 {
				r.fc(n, fcHidden, last*49)
				r.fc(n, fcHidden, fcHidden)
				r.fc(n, classes, fcHidden)
			} else {
				r.fc(n, classes, last)
			}
			logits := int64(n) * int64(classes)
			r.kernel("softmax_warp_forward", []int{n, classes}, 2*r.es*logits, 5*logits, r.cfg.DType)
			r.kernel("nll_loss_forward_reduce_cuda_kernel_2d", []int{n}, 8*int64(n), 2*int64(n), r.cfg.DType)
		},
		emitBwd: func() {
			logits := int64(n) * int64(classes)
			r.kernel("nll_loss_backward_reduce_cuda_kernel_2d", []int{n}, 8*int64(n), 2*int64(n), r.cfg.DType)
			r.kernel("softmax_warp_backward", []int{n, classes}, 3*r.es*logits, 6*logits, r.cfg.DType)
			if fcHidden > 0 {
				r.fc(n, fcHidden, classes)
				r.fc(classes, fcHidden, n)
				r.fc(n, fcHidden, fcHidden)
				r.fc(fcHidden, fcHidden, n)
				r.fc(n, last*49, fcHidden)
				r.fc(fcHidden, last*49, n)
			} else {
				r.fc(n, last, classes)
				r.fc(classes, last, n)
			}
			r.kernel("max_pool_backward_nhwc", []int{n, last, finalRes, finalRes, finalRes, 1},
				2*int64(n)*int64(last)*int64(finalRes)*int64(finalRes)*r.es, 0, r.cfg.DType)
		},
	})
}

// cnnStageBlock builds one repeated stage (ResNet bottlenecks or
// plain conv repeats).
func (r *dpRunner) cnnStageBlock(si int, st models.ConvStage, n, inRes, outRes int) dpBlock {
	var params int64
	emitOne := func(in int, res int, stride int, fwd bool) {
		if st.Bottleneck {
			mid := st.Out / 4
			shapes := []convShape{
				{n: n, c: in, hw: res, k: mid, ksize: 1, stride: stride},
				{n: n, c: mid, hw: res / stride, k: mid, ksize: st.Kernel, stride: 1},
				{n: n, c: mid, hw: res / stride, k: st.Out, ksize: 1, stride: 1},
			}
			if fwd {
				for _, sh := range shapes {
					r.convKernel(sh, "fwd")
					r.bnAct(n, sh.k, sh.hw/sh.stride, true)
				}
				r.cnnResidual(int64(n) * int64(st.Out) * int64(res/stride) * int64(res/stride))
			} else {
				r.cnnResidual(int64(n) * int64(st.Out) * int64(res/stride) * int64(res/stride))
				for i := len(shapes) - 1; i >= 0; i-- {
					sh := shapes[i]
					r.bnAct(n, sh.k, sh.hw/sh.stride, false)
					r.convKernel(sh, "bwdData")
					r.convKernel(sh, "bwdFilter")
				}
			}
			return
		}
		sh := convShape{n: n, c: in, hw: res, k: st.Out, ksize: st.Kernel, stride: stride}
		if fwd {
			r.convKernel(sh, "fwd")
			r.bnAct(n, st.Out, res/stride, true)
		} else {
			r.bnAct(n, st.Out, res/stride, false)
			r.convKernel(sh, "bwdData")
			r.convKernel(sh, "bwdFilter")
		}
	}

	if st.Bottleneck {
		mid := st.Out / 4
		params = int64(st.In)*int64(mid) + int64(mid)*int64(mid)*int64(st.Kernel*st.Kernel) + int64(mid)*int64(st.Out)
		if st.Repeat > 1 {
			per := int64(st.Out)*int64(mid) + int64(mid)*int64(mid)*int64(st.Kernel*st.Kernel) + int64(mid)*int64(st.Out)
			params += per * int64(st.Repeat-1)
		}
	} else {
		params = int64(st.In) * int64(st.Out) * int64(st.Kernel*st.Kernel)
		if st.Repeat > 1 {
			params += int64(st.Out) * int64(st.Out) * int64(st.Kernel*st.Kernel) * int64(st.Repeat-1)
		}
	}
	actBytes := int64(st.Repeat) * 3 * int64(n) * int64(st.Out) * int64(outRes) * int64(outRes) * r.es

	return dpBlock{
		name:     fmt.Sprintf("stage%d", si),
		params:   params,
		actBytes: actBytes,
		emitFwd: func() {
			emitOne(st.In, inRes, st.Stride, true)
			for rep := 1; rep < st.Repeat; rep++ {
				emitOne(st.Out, outRes, 1, true)
			}
		},
		emitBwd: func() {
			for rep := 1; rep < st.Repeat; rep++ {
				emitOne(st.Out, outRes, 1, false)
			}
			emitOne(st.In, inRes, st.Stride, false)
		},
	}
}

// fc emits a dense layer matmul: cublasLtMatmul under torch.compile,
// the classic Sgemm otherwise.
func (r *dpRunner) fc(m, n, k int) {
	if r.err != nil {
		return
	}
	if r.cfg.Compile {
		r.check(r.blas.LtMatmul(m, n, k, r.cfg.DType))
	} else {
		r.check(r.blas.SgemmV2(m, n, k))
	}
}
