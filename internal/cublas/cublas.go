// Package cublas emulates the cuBLAS host API on top of the narrow
// waist. cuBLAS is stateful: matrix multiplications are configured
// through a sequence of handle calls (Create, SetStream, SetMathMode,
// SetMatrix) before the compute entry point runs. Maya must track
// those sequences to assemble complete operation metadata — this
// package is that context-aware modeling layer.
package cublas

import (
	"fmt"

	"maya/internal/cuda"
)

// MathMode mirrors cublasMath_t.
type MathMode int

// Math modes.
const (
	DefaultMath MathMode = iota
	TensorOpMath
)

// Handle is a cuBLAS context bound to a device. The zero value is
// unusable; obtain handles from Create, as with cublasCreate.
type Handle struct {
	dev    cuda.Device
	stream cuda.Stream
	math   MathMode
	valid  bool
	// dims backs each GEMM launch's Dims: the device copies them at
	// the launch, so one array serves every launch.
	dims [4]int
}

// Create initializes a cuBLAS handle on dev (cublasCreate_v2).
func Create(dev cuda.Device) (*Handle, error) {
	if dev == nil {
		return nil, fmt.Errorf("cublas: %w: nil device", cuda.ErrInvalidValue)
	}
	return &Handle{dev: dev, stream: cuda.DefaultStream, valid: true}, nil
}

// Destroy invalidates the handle (cublasDestroy_v2).
func (h *Handle) Destroy() error {
	if !h.valid {
		return fmt.Errorf("cublas: %w", cuda.ErrInvalidHandle)
	}
	h.valid = false
	return nil
}

// SetStream binds subsequent launches to s (cublasSetStream_v2).
func (h *Handle) SetStream(s cuda.Stream) error {
	if !h.valid {
		return fmt.Errorf("cublas: %w", cuda.ErrInvalidHandle)
	}
	h.stream = s
	return nil
}

// Stream returns the currently bound stream.
func (h *Handle) Stream() cuda.Stream { return h.stream }

// SetMathMode selects tensor-core usage (cublasSetMathMode).
func (h *Handle) SetMathMode(m MathMode) error {
	if !h.valid {
		return fmt.Errorf("cublas: %w", cuda.ErrInvalidHandle)
	}
	h.math = m
	return nil
}

// SetMatrix uploads a host matrix to the device (cublasSetMatrix):
// semantically a HtoD copy of rows*cols elements.
func (h *Handle) SetMatrix(rows, cols int, elemSize int64, dst cuda.DevicePtr) error {
	if !h.valid {
		return fmt.Errorf("cublas: %w", cuda.ErrInvalidHandle)
	}
	if rows <= 0 || cols <= 0 || elemSize <= 0 {
		return fmt.Errorf("cublas: %w: SetMatrix %dx%d elem %d", cuda.ErrInvalidValue, rows, cols, elemSize)
	}
	return h.dev.MemcpyAsync(dst, 0, int64(rows)*int64(cols)*elemSize, cuda.MemcpyHostToDevice, h.stream)
}

func (h *Handle) check(m, n, k int) error {
	if !h.valid {
		return fmt.Errorf("cublas: %w", cuda.ErrInvalidHandle)
	}
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("cublas: %w: gemm %dx%dx%d", cuda.ErrInvalidValue, m, n, k)
	}
	return nil
}

func dtypeSize(dt string) int64 {
	switch dt {
	case "fp16", "bf16":
		return 2
	case "fp8", "int8":
		return 1
	default:
		return 4
	}
}

func (h *Handle) gemmDesc(name string, batch, m, n, k int, dt string) cuda.KernelDesc {
	b := int64(batch)
	es := dtypeSize(dt)
	h.dims = [...]int{batch, m, n, k}
	return cuda.KernelDesc{
		Name:  name,
		Dims:  h.dims[:],
		FLOPs: 2 * b * int64(m) * int64(n) * int64(k),
		Bytes: b * es * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)),
		DType: dt,
	}
}

// SgemmV2 is cublasSgemm_v2: single-precision C = A*B with
// dimensions MxK * KxN.
func (h *Handle) SgemmV2(m, n, k int) error {
	if err := h.check(m, n, k); err != nil {
		return err
	}
	return h.dev.LaunchKernel(h.gemmDesc("cublasSgemm_v2", 1, m, n, k, "fp32"), h.stream)
}

// GemmEx is cublasGemmEx: mixed-precision GEMM with an explicit
// compute type. Training frameworks use it for bf16/fp16 matmuls.
func (h *Handle) GemmEx(m, n, k int, dtype string) error {
	if err := h.check(m, n, k); err != nil {
		return err
	}
	name := "cublasGemmEx"
	if dtype == "fp32" {
		// cuBLAS routes fp32 GemmEx through the classic Sgemm kernel.
		name = "cublasSgemm_v2"
	}
	return h.dev.LaunchKernel(h.gemmDesc(name, 1, m, n, k, dtype), h.stream)
}

// SgemmStridedBatched is cublasSgemmStridedBatched: batch GEMMs with
// uniform strides, the workhorse of attention score/context matmuls.
func (h *Handle) SgemmStridedBatched(batch, m, n, k int, dtype string) error {
	if err := h.check(m, n, k); err != nil {
		return err
	}
	if batch <= 0 {
		return fmt.Errorf("cublas: %w: batch %d", cuda.ErrInvalidValue, batch)
	}
	return h.dev.LaunchKernel(h.gemmDesc("cublasSgemmStridedBatched", batch, m, n, k, dtype), h.stream)
}

// LtMatmul is cublasLtMatmul, the epilogue-fusing matmul entry that
// torch.compile lowers dense layers to on Ampere+.
func (h *Handle) LtMatmul(m, n, k int, dtype string) error {
	if err := h.check(m, n, k); err != nil {
		return err
	}
	return h.dev.LaunchKernel(h.gemmDesc("cublasLtMatmul", 1, m, n, k, dtype), h.stream)
}
