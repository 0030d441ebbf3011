package framework

import (
	"fmt"

	"maya/internal/cublas"
	"maya/internal/cuda"
	"maya/internal/nccl"
)

// shell is one rank's device context, shared by both training
// programs: the device, the rank, the handles and streams every
// program opens, and the first error. Device-API errors are sticky:
// the guarded helpers (malloc, free, launch, initComm) become no-ops
// once an error is recorded and run reports it, keeping the emission
// code linear. The end-of-setup mark, the end-of-iteration calls, the
// optimizer step's collectives and the handoff are not guarded: a
// failing rank still issues them (a caller that must skip a handoff
// after an error checks first), and its partial trace keeps them.
type shell struct {
	dev  cuda.Device
	rank int
	err  error
	iter int // running iteration

	blas    *cublas.Handle
	compute cuda.Stream
	comm    cuda.Stream // gradient-reduction stream (overlap)
}

// check records the first error.
func (s *shell) check(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

func (s *shell) malloc(bytes int64) cuda.DevicePtr {
	if s.err != nil {
		return 0
	}
	p, err := s.dev.Malloc(bytes)
	s.check(err)
	return p
}

func (s *shell) free(p cuda.DevicePtr) {
	if s.err != nil || p == 0 {
		return
	}
	s.check(s.dev.Free(p))
}

// launch emits one kernel on the compute stream.
func (s *shell) launch(k cuda.KernelDesc) {
	if s.err != nil {
		return
	}
	s.check(s.dev.LaunchKernel(k, s.compute))
}

// kernel emits one plain compute kernel on the compute stream.
func (s *shell) kernel(name string, dims []int, bytes, flops int64, dtype string) {
	s.launch(cuda.KernelDesc{Name: name, Dims: dims, Bytes: bytes, FLOPs: flops, DType: dtype})
}

// handoff makes dst wait for the work issued so far on src: an event
// recorded on src, waited on by dst. It is not guarded.
func (s *shell) handoff(src, dst cuda.Stream) {
	ev, err := s.dev.EventCreate()
	s.check(err)
	s.check(s.dev.EventRecord(ev, src))
	s.check(s.dev.StreamWaitEvent(dst, ev))
}

// initComm joins the communicator of group (global ranks) named by
// tag; it returns nil after an error.
func (s *shell) initComm(tag string, group []int) *nccl.Communicator {
	if s.err != nil {
		return nil
	}
	myPos := -1
	for i, g := range group {
		if g == s.rank {
			myPos = i
		}
	}
	if myPos < 0 {
		s.check(fmt.Errorf("rank %d not in its own %s group %v", s.rank, tag, group))
		return nil
	}
	c, err := nccl.CommInitRank(s.dev, len(group), myPos, nccl.UniqueIDFor(tag, group))
	s.check(err)
	return c
}

// adamStep is the optimizer step over stepParams local parameters:
// gradient-norm clipping (one reduction over the local grads plus a
// scalar all-reduce over dpc, when there is one) and fused Adam over
// ~48M-element chunks.
func (s *shell) adamStep(stepParams int64, dpc *nccl.Communicator) {
	s.kernel("reduce_kernel", []int{int(stepParams)}, stepParams*4, stepParams, "fp32")
	if dpc != nil {
		s.check(dpc.AllReduce(4, s.compute))
	}
	const chunk = 48 << 20
	for left := stepParams; left > 0; left -= chunk {
		n := min(left, chunk)
		s.kernel("multi_tensor_apply_kernel", []int{int(n)}, n*16, n*8, "fp32")
	}
}

// open creates the cuBLAS handle in tensor-op mode and the comm
// stream; compute work goes to the default stream.
func (s *shell) open() {
	var err error
	s.blas, err = cublas.Create(s.dev)
	s.check(err)
	if s.err != nil {
		return
	}
	s.check(s.blas.SetMathMode(cublas.TensorOpMath))
	s.compute = cuda.DefaultStream
	s.comm, err = s.dev.StreamCreate()
	s.check(err)
}

// endSetup queries free memory, as frameworks do to size their
// caching allocators, and marks the end of setup.
func (s *shell) endSetup() {
	if s.err == nil {
		_, _, err := s.dev.MemGetInfo()
		s.check(err)
	}
	s.check(s.dev.Mark("setup_end"))
}

// endIteration drains the device and marks the end of an iteration.
func (s *shell) endIteration() {
	s.check(s.dev.DeviceSynchronize())
	s.check(s.dev.Mark("iter_end"))
}

// run plays the program: setup, then iterations until one fails. The
// error names the program and the rank.
func (s *shell) run(name string, iterations int, setup, iteration func()) error {
	setup()
	for s.iter = 0; s.iter < iterations && s.err == nil; s.iter++ {
		iteration()
	}
	if s.err != nil {
		return fmt.Errorf("%s rank %d: %w", name, s.rank, s.err)
	}
	return nil
}
