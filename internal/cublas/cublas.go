// Package cublas emulates the cuBLAS host API on top of the narrow
// waist. A handle created with Create carries the device, and each
// compute entry point the programs call becomes one kernel launch
// whose metadata (dims, bytes, FLOPs, dtype) the entry point's
// arguments determine.
package cublas

import (
	"fmt"

	"maya/internal/cuda"
	"maya/internal/hardware"
)

// Handle is a cuBLAS context bound to a device; obtain handles from
// Create, as with cublasCreate. Launches go to the default stream,
// where the programs run their compute.
type Handle struct {
	dev cuda.Device
	// dims backs each GEMM launch's Dims: the device copies them at
	// the launch, so one array serves every launch.
	dims [4]int
}

// Create initializes a cuBLAS handle on dev (cublasCreate_v2).
func Create(dev cuda.Device) (*Handle, error) {
	if dev == nil {
		return nil, fmt.Errorf("cublas: %w: nil device", cuda.ErrInvalidValue)
	}
	return &Handle{dev: dev}, nil
}

// launch emits one GEMM kernel: batch products of an m×k and a k×n
// matrix.
func (h *Handle) launch(name string, batch, m, n, k int, dt string) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("cublas: %w: gemm %dx%dx%d", cuda.ErrInvalidValue, m, n, k)
	}
	if batch <= 0 {
		return fmt.Errorf("cublas: %w: batch %d", cuda.ErrInvalidValue, batch)
	}
	b := int64(batch)
	es := hardware.DType(dt).Size()
	h.dims = [...]int{batch, m, n, k}
	return h.dev.LaunchKernel(cuda.KernelDesc{
		Name:  name,
		Dims:  h.dims[:],
		FLOPs: 2 * b * int64(m) * int64(n) * int64(k),
		Bytes: b * es * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)),
		DType: dt,
	}, cuda.DefaultStream)
}

// SgemmV2 is cublasSgemm_v2: single-precision C = A*B with
// dimensions MxK * KxN.
func (h *Handle) SgemmV2(m, n, k int) error {
	return h.launch("cublasSgemm_v2", 1, m, n, k, "fp32")
}

// GemmEx is cublasGemmEx: mixed-precision GEMM with an explicit
// compute type. Training frameworks use it for bf16/fp16 matmuls.
func (h *Handle) GemmEx(m, n, k int, dtype string) error {
	name := "cublasGemmEx"
	if dtype == "fp32" {
		// cuBLAS routes fp32 GemmEx through the classic Sgemm kernel.
		name = "cublasSgemm_v2"
	}
	return h.launch(name, 1, m, n, k, dtype)
}

// SgemmStridedBatched is cublasSgemmStridedBatched: batch GEMMs with
// uniform strides, the workhorse of attention score/context matmuls.
func (h *Handle) SgemmStridedBatched(batch, m, n, k int, dtype string) error {
	return h.launch("cublasSgemmStridedBatched", batch, m, n, k, dtype)
}

// LtMatmul is cublasLtMatmul, the epilogue-fusing matmul entry that
// torch.compile lowers dense layers to on Ampere+.
func (h *Handle) LtMatmul(m, n, k int, dtype string) error {
	return h.launch("cublasLtMatmul", 1, m, n, k, dtype)
}
