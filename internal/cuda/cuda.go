// Package cuda defines the narrow-waist accelerator API that training
// code programs against. It mirrors the CUDA runtime surface the
// paper's emulator interposes on — device management, memory, streams,
// events, synchronization and kernel launch — as a Go interface.
//
// This boundary is the reproduction of the paper's LD_PRELOAD shim:
// everything above it (the training frameworks in internal/framework)
// is "user code" that never knows whether it is talking to the
// transparent emulator, the profiling backend, or the synthetic
// silicon used as ground truth. The cublas, cudnn and nccl packages
// layer library semantics (stateful handles, descriptors,
// communicators) on top of this interface, exactly as the real
// libraries layer on the driver API.
package cuda

import (
	"errors"
	"fmt"
)

// DevicePtr is an opaque device memory address.
type DevicePtr uint64

// Stream is an opaque stream handle. The zero value is the default
// (legacy) stream.
type Stream int64

// DefaultStream is the implicit stream every device starts with.
const DefaultStream Stream = 0

// Event is an opaque event handle.
type Event int64

// MemcpyKind enumerates transfer directions, as in cudaMemcpyKind.
type MemcpyKind uint8

// Transfer directions.
const (
	MemcpyHostToDevice MemcpyKind = iota
	MemcpyDeviceToHost
	MemcpyDeviceToDevice
	MemcpyHostToHost
)

// String implements fmt.Stringer using the trace abbreviations.
func (k MemcpyKind) String() string {
	switch k {
	case MemcpyHostToDevice:
		return "HtoD"
	case MemcpyDeviceToHost:
		return "DtoH"
	case MemcpyDeviceToDevice:
		return "DtoD"
	case MemcpyHostToHost:
		return "HtoH"
	}
	return "?"
}

// Errors mirroring the CUDA error model. The emulator reports the
// same failures a real device would (OOM, invalid handles), which is
// how Maya flags broken configurations without hardware.
var (
	ErrOutOfMemory        = errors.New("cuda: out of memory")
	ErrInvalidValue       = errors.New("cuda: invalid value")
	ErrInvalidHandle      = errors.New("cuda: invalid resource handle")
	ErrInvalidDevicePtr   = errors.New("cuda: invalid device pointer")
	ErrUnsupportedLibCall = errors.New("cuda: unsupported library call sequence")
)

// KernelDesc is the metadata recorded for a compute-kernel launch.
// Shapes, byte volumes and FLOP counts — never values; the decoupling
// of control flow from computation results is what makes no-op
// emulation possible.
type KernelDesc struct {
	// Name is the device-symbol name, e.g. "cublasSgemm_v2" or
	// "cuApplyLayerNorm". Estimators key their per-kernel models on it.
	Name string
	// Dims carries the semantic shape: (M,N,K) for GEMMs,
	// (N,C,H,W,K,R,S,stride,pad) for convolutions, element counts for
	// pointwise kernels.
	Dims []int
	// Bytes is the total memory traffic the kernel generates.
	Bytes int64
	// FLOPs is the arithmetic work.
	FLOPs int64
	// DType is the element type ("bf16", "fp32", ...).
	DType string
	// Extra carries auxiliary features, e.g. Triton primitive
	// instruction counts for compiler-fused kernels.
	Extra map[string]float64
}

// Validate rejects obviously malformed launches.
func (k KernelDesc) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("%w: kernel with empty name", ErrInvalidValue)
	}
	if k.Bytes < 0 || k.FLOPs < 0 {
		return fmt.Errorf("%w: kernel %s with negative work", ErrInvalidValue, k.Name)
	}
	for _, d := range k.Dims {
		if d < 0 {
			return fmt.Errorf("%w: kernel %s with negative dim", ErrInvalidValue, k.Name)
		}
	}
	return nil
}

// CollectiveDesc is the metadata recorded for a NCCL collective or
// point-to-point operation. The nccl package fills it from
// communicator state; the device backend only records it.
type CollectiveDesc struct {
	Op     string // "ncclAllReduce", "ncclSend", ...
	CommID uint64 // global communicator identity
	Seq    int    // per-communicator (or per-peer-pair for P2P) call index
	NRanks int    // communicator size
	Rank   int    // caller rank within the communicator
	Peer   int    // destination/source rank for P2P, -1 otherwise
	Bytes  int64  // payload bytes
}

// Device is the complete device-API surface training code may use.
// Implementations: the transparent emulator (internal/emulator) and
// any future real binding. All methods follow CUDA semantics; in
// particular "Async" operations only enqueue work.
type Device interface {
	// MemGetInfo mimics cudaMemGetInfo: free and total HBM bytes.
	// Frameworks use it for allocator decisions, so the emulator must
	// answer consistently with its tracked allocations.
	MemGetInfo() (free, total int64, err error)

	// Malloc reserves device memory, failing with ErrOutOfMemory when
	// capacity is exceeded — Maya's OOM detection.
	Malloc(bytes int64) (DevicePtr, error)
	// Free releases an allocation made by Malloc.
	Free(ptr DevicePtr) error

	// StreamCreate returns a new asynchronous work queue.
	StreamCreate() (Stream, error)

	// EventCreate returns a new event handle.
	EventCreate() (Event, error)
	// EventRecord captures the state of a stream into an event.
	EventRecord(e Event, s Stream) error
	// StreamWaitEvent makes future work on s wait for the most recent
	// record of e (a no-op if e was never recorded), as in CUDA.
	StreamWaitEvent(s Stream, e Event) error
	// DeviceSynchronize blocks the host until all streams drain.
	DeviceSynchronize() error

	// MemcpyAsync enqueues a transfer on s. Host pointers are modeled
	// by DevicePtr(0) plus kind; the emulator resolves the ambiguity
	// the way the paper describes for unified-memory workloads.
	MemcpyAsync(dst, src DevicePtr, bytes int64, kind MemcpyKind, s Stream) error

	// LaunchKernel enqueues a compute kernel on s. Under emulation
	// this records metadata and returns immediately (the no-op
	// transformation at the heart of Maya). The device keeps nothing
	// of k.Dims or k.Extra past the call, so callers may reuse them.
	LaunchKernel(k KernelDesc, s Stream) error

	// LaunchCollective enqueues a communication operation on s. It is
	// the single entry point the nccl package lowers to.
	LaunchCollective(c CollectiveDesc, s Stream) error

	// Mark inserts an application-level annotation (iteration
	// boundaries) into the trace. Real CUDA exposes similar
	// functionality through NVTX ranges.
	Mark(label string) error
}
