package cublas

import (
	"errors"
	"testing"

	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/trace"
)

func handle(t *testing.T) (*Handle, *emulator.Emulator) {
	t.Helper()
	d := emulator.New(emulator.Config{GPU: hardware.H100(), Host: hardware.Host{}})
	h, err := Create(d)
	if err != nil {
		t.Fatal(err)
	}
	return h, d
}

func lastKernel(t *testing.T, d *emulator.Emulator) *trace.Op {
	t.Helper()
	ops := d.Trace().Ops
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == trace.KindKernel {
			return &ops[i]
		}
	}
	t.Fatal("no kernel in trace")
	return nil
}

func TestGemmExMetadata(t *testing.T) {
	h, d := handle(t)
	if err := h.GemmEx(256, 512, 1024, "bf16"); err != nil {
		t.Fatal(err)
	}
	k := lastKernel(t, d)
	if k.Name != "cublasGemmEx" {
		t.Fatalf("name = %s", k.Name)
	}
	wantFLOPs := int64(2 * 256 * 512 * 1024)
	if k.Shape.FLOPs != wantFLOPs {
		t.Fatalf("flops = %d, want %d", k.Shape.FLOPs, wantFLOPs)
	}
	wantBytes := int64(2 * (256*1024 + 1024*512 + 256*512))
	if k.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", k.Bytes, wantBytes)
	}
	if len(k.Shape.Dims) != 4 || k.Shape.Dims[1] != 256 || k.Shape.Dims[2] != 512 || k.Shape.Dims[3] != 1024 {
		t.Fatalf("dims = %v", k.Shape.Dims)
	}
}

func TestFP32GemmExRoutesToSgemm(t *testing.T) {
	h, d := handle(t)
	if err := h.GemmEx(64, 64, 64, "fp32"); err != nil {
		t.Fatal(err)
	}
	if k := lastKernel(t, d); k.Name != "cublasSgemm_v2" {
		t.Fatalf("fp32 GemmEx lowered to %s", k.Name)
	}
}

func TestStridedBatchedCarriesBatch(t *testing.T) {
	h, d := handle(t)
	if err := h.SgemmStridedBatched(16, 128, 64, 32, "fp16"); err != nil {
		t.Fatal(err)
	}
	k := lastKernel(t, d)
	if k.Shape.Dims[0] != 16 {
		t.Fatalf("batch dim = %d", k.Shape.Dims[0])
	}
	if k.Shape.FLOPs != int64(16)*2*128*64*32 {
		t.Fatalf("flops = %d", k.Shape.FLOPs)
	}
}

func TestInvalidDimensionsAndHandleState(t *testing.T) {
	h, _ := handle(t)
	if err := h.SgemmV2(0, 4, 4); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("zero dim err = %v", err)
	}
	if _, err := Create(nil); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("nil device err = %v", err)
	}
}
