// Package cudnn emulates the cuDNN host API: opaque descriptors are
// configured incrementally (tensor, filter and convolution
// descriptors) and later combined by compute entry points. Maya
// tracks the descriptor state so that each convolution launch carries
// its complete geometry — uninitialized or inconsistent descriptors
// are flagged the way the real library would fail.
package cudnn

import (
	"fmt"

	"maya/internal/cuda"
	"maya/internal/hardware"
)

// Handle is a cuDNN context bound to a device; obtain handles from
// Create. Launches go to the default stream, where the programs run
// their compute.
type Handle struct {
	dev cuda.Device
	// dims backs each convolution launch's Dims: the device copies
	// them at the launch, so one array serves every launch.
	dims [11]int
}

// Create initializes a handle (cudnnCreate).
func Create(dev cuda.Device) (*Handle, error) {
	if dev == nil {
		return nil, fmt.Errorf("cudnn: %w: nil device", cuda.ErrInvalidValue)
	}
	return &Handle{dev: dev}, nil
}

// TensorDesc describes an activation tensor (cudnnTensorDescriptor).
// Build one with NewTensorDesc then Set4D.
type TensorDesc struct {
	n, c, hh, w int
	dtype       string
	set         bool
}

// NewTensorDesc creates an unset descriptor (cudnnCreateTensorDescriptor).
func NewTensorDesc() *TensorDesc { return &TensorDesc{} }

// Set4D configures an NCHW tensor (cudnnSetTensor4dDescriptor).
func (t *TensorDesc) Set4D(n, c, hgt, w int, dtype string) error {
	if n <= 0 || c <= 0 || hgt <= 0 || w <= 0 {
		return fmt.Errorf("cudnn: %w: tensor %dx%dx%dx%d", cuda.ErrInvalidValue, n, c, hgt, w)
	}
	t.n, t.c, t.hh, t.w, t.dtype, t.set = n, c, hgt, w, dtype, true
	return nil
}

// Elems returns the number of elements described.
func (t *TensorDesc) Elems() int64 {
	return int64(t.n) * int64(t.c) * int64(t.hh) * int64(t.w)
}

// FilterDesc describes convolution weights (cudnnFilterDescriptor).
type FilterDesc struct {
	k, c, r, s int
	set        bool
}

// NewFilterDesc creates an unset descriptor.
func NewFilterDesc() *FilterDesc { return &FilterDesc{} }

// Set4D configures a KCRS filter (cudnnSetFilter4dDescriptor).
func (f *FilterDesc) Set4D(k, c, r, s int) error {
	if k <= 0 || c <= 0 || r <= 0 || s <= 0 {
		return fmt.Errorf("cudnn: %w: filter %dx%dx%dx%d", cuda.ErrInvalidValue, k, c, r, s)
	}
	f.k, f.c, f.r, f.s, f.set = k, c, r, s, true
	return nil
}

// ConvDesc describes convolution geometry (cudnnConvolutionDescriptor).
type ConvDesc struct {
	padH, padW, strideH, strideW int
	set                          bool
}

// NewConvDesc creates an unset descriptor.
func NewConvDesc() *ConvDesc { return &ConvDesc{} }

// Set2D configures padding and stride (cudnnSetConvolution2dDescriptor).
func (c *ConvDesc) Set2D(padH, padW, strideH, strideW int) error {
	if padH < 0 || padW < 0 || strideH <= 0 || strideW <= 0 {
		return fmt.Errorf("cudnn: %w: conv pad %d,%d stride %d,%d", cuda.ErrInvalidValue, padH, padW, strideH, strideW)
	}
	c.padH, c.padW, c.strideH, c.strideW, c.set = padH, padW, strideH, strideW, true
	return nil
}

// OutputDim computes the forward output shape, mirroring
// cudnnGetConvolution2dForwardOutputDim.
func (c *ConvDesc) OutputDim(x *TensorDesc, f *FilterDesc) (n, k, oh, ow int, err error) {
	if !c.set || !x.set || !f.set {
		return 0, 0, 0, 0, fmt.Errorf("cudnn: %w: descriptor not configured", cuda.ErrUnsupportedLibCall)
	}
	if x.c != f.c {
		return 0, 0, 0, 0, fmt.Errorf("cudnn: %w: input channels %d != filter channels %d", cuda.ErrInvalidValue, x.c, f.c)
	}
	oh = (x.hh+2*c.padH-f.r)/c.strideH + 1
	ow = (x.w+2*c.padW-f.s)/c.strideW + 1
	if oh <= 0 || ow <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("cudnn: %w: degenerate output %dx%d", cuda.ErrInvalidValue, oh, ow)
	}
	return x.n, f.k, oh, ow, nil
}

// conv launches one convolution kernel with the descriptors'
// geometry.
func (h *Handle) conv(name string, x *TensorDesc, f *FilterDesc, c *ConvDesc) error {
	n, k, oh, ow, err := c.OutputDim(x, f)
	if err != nil {
		return err
	}
	es := hardware.DType(x.dtype).Size()
	flops := 2 * int64(n) * int64(k) * int64(oh) * int64(ow) * int64(f.c) * int64(f.r) * int64(f.s)
	bytes := es * (x.Elems() + int64(f.k)*int64(f.c)*int64(f.r)*int64(f.s) + int64(n)*int64(k)*int64(oh)*int64(ow))
	h.dims = [...]int{n, x.c, x.hh, x.w, k, f.r, f.s, c.strideH, c.padH, oh, ow}
	return h.dev.LaunchKernel(cuda.KernelDesc{
		Name:  name,
		Dims:  h.dims[:],
		FLOPs: flops,
		Bytes: bytes,
		DType: x.dtype,
	}, cuda.DefaultStream)
}

// ConvolutionForward launches the forward convolution.
func (h *Handle) ConvolutionForward(x *TensorDesc, f *FilterDesc, c *ConvDesc) error {
	return h.conv("cudnnConvolutionForward", x, f, c)
}

// ConvolutionBackwardData launches the input-gradient convolution.
func (h *Handle) ConvolutionBackwardData(x *TensorDesc, f *FilterDesc, c *ConvDesc) error {
	return h.conv("cudnnConvolutionBackwardData", x, f, c)
}

// ConvolutionBackwardFilter launches the weight-gradient convolution.
func (h *Handle) ConvolutionBackwardFilter(x *TensorDesc, f *FilterDesc, c *ConvDesc) error {
	return h.conv("cudnnConvolutionBackwardFilter", x, f, c)
}
