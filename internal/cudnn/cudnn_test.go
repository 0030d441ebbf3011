package cudnn

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
	d := emulator.New(emulator.Config{GPU: hardware.A40(), Host: hardware.Host{}})
	h, err := Create(d)
	if err != nil {
		t.Fatal(err)
	}
	return h, d
}

func descriptors(t *testing.T) (*TensorDesc, *FilterDesc, *ConvDesc) {
	t.Helper()
	x := NewTensorDesc()
	if err := x.Set4D(8, 64, 56, 56, "fp16"); err != nil {
		t.Fatal(err)
	}
	f := NewFilterDesc()
	if err := f.Set4D(128, 64, 3, 3); err != nil {
		t.Fatal(err)
	}
	c := NewConvDesc()
	if err := c.Set2D(1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	return x, f, c
}

func TestOutputDim(t *testing.T) {
	x, f, c := descriptors(t)
	n, k, oh, ow, err := c.OutputDim(x, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || k != 128 || oh != 56 || ow != 56 {
		t.Fatalf("output = %d %d %d %d", n, k, oh, ow)
	}
	// Stride 2 halves the resolution.
	c2 := NewConvDesc()
	_ = c2.Set2D(1, 1, 2, 2)
	_, _, oh, _, _ = c2.OutputDim(x, f)
	if oh != 28 {
		t.Fatalf("strided output height = %d, want 28", oh)
	}
}

func TestConvolutionForwardMetadata(t *testing.T) {
	h, d := handle(t)
	x, f, c := descriptors(t)
	if err := h.ConvolutionForward(x, f, c); err != nil {
		t.Fatal(err)
	}
	ops := d.Trace().Ops
	k := ops[len(ops)-1]
	if k.Name != "cudnnConvolutionForward" {
		t.Fatalf("name = %s", k.Name)
	}
	wantFLOPs := int64(2) * 8 * 128 * 56 * 56 * 64 * 3 * 3
	if k.Shape.FLOPs != wantFLOPs {
		t.Fatalf("flops = %d, want %d", k.Shape.FLOPs, wantFLOPs)
	}
	// Dims layout: n,c,h,w,k,r,s,stride — estimator features depend on
	// the first 8 staying stable.
	if len(k.Shape.Dims) < 8 || k.Shape.Dims[0] != 8 || k.Shape.Dims[1] != 64 || k.Shape.Dims[4] != 128 || k.Shape.Dims[7] != 1 {
		t.Fatalf("dims = %v", k.Shape.Dims)
	}
}

func TestUnconfiguredDescriptorsFlagged(t *testing.T) {
	h, _ := handle(t)
	x := NewTensorDesc() // never Set4D
	f := NewFilterDesc()
	_ = f.Set4D(8, 8, 3, 3)
	c := NewConvDesc()
	_ = c.Set2D(1, 1, 1, 1)
	err := h.ConvolutionForward(x, f, c)
	if !errors.Is(err, cuda.ErrUnsupportedLibCall) {
		t.Fatalf("unset tensor err = %v", err)
	}
}

func TestChannelMismatchRejected(t *testing.T) {
	h, _ := handle(t)
	x := NewTensorDesc()
	_ = x.Set4D(8, 64, 56, 56, "fp16")
	f := NewFilterDesc()
	_ = f.Set4D(128, 32, 3, 3) // filter expects 32 channels, input has 64
	c := NewConvDesc()
	_ = c.Set2D(1, 1, 1, 1)
	if err := h.ConvolutionForward(x, f, c); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("channel mismatch err = %v", err)
	}
}

func TestBackwardKernelsNamed(t *testing.T) {
	h, d := handle(t)
	x, f, c := descriptors(t)
	if err := h.ConvolutionBackwardData(x, f, c); err != nil {
		t.Fatal(err)
	}
	if err := h.ConvolutionBackwardFilter(x, f, c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, op := range d.Trace().Ops {
		if op.Kind == trace.KindKernel {
			names = append(names, op.Name)
		}
	}
	if len(names) != 2 || names[0] != "cudnnConvolutionBackwardData" || names[1] != "cudnnConvolutionBackwardFilter" {
		t.Fatalf("names = %v", names)
	}
}

func TestDegenerateGeometryRejected(t *testing.T) {
	x := NewTensorDesc()
	_ = x.Set4D(1, 3, 2, 2, "fp16")
	f := NewFilterDesc()
	_ = f.Set4D(8, 3, 7, 7)
	c := NewConvDesc()
	_ = c.Set2D(0, 0, 1, 1) // 7x7 kernel over 2x2 input, no padding
	if _, _, _, _, err := c.OutputDim(x, f); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("degenerate output err = %v", err)
	}
}
