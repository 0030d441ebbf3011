package models

import "fmt"

// ConvStage is a repeated convolution block in a CNN.
type ConvStage struct {
	// In/Out channels, kernel size, stride of the first repeat.
	In, Out, Kernel, Stride int
	// Repeat is how many times the block runs (stride 1 after the
	// first).
	Repeat int
	// Bottleneck marks ResNet-style 1x1/3x3/1x1 triplets.
	Bottleneck bool
}

// CNN describes a convolutional network as staged blocks.
type CNN struct {
	Name    string
	Input   int // square input resolution
	Stem    ConvStage
	Stages  []ConvStage
	Classes int
	// FCHidden adds VGG-style dense layers before the classifier.
	FCHidden int
}

// Params approximates the parameter count.
func (c CNN) Params() int64 {
	var p int64
	add := func(in, out, k, repeat int, bottleneck bool) {
		if bottleneck {
			mid := out / 4
			per := int64(in)*int64(mid) + int64(mid)*int64(mid)*int64(k)*int64(k) + int64(mid)*int64(out)
			p += per
			if repeat > 1 {
				per2 := int64(out)*int64(mid) + int64(mid)*int64(mid)*int64(k)*int64(k) + int64(mid)*int64(out)
				p += per2 * int64(repeat-1)
			}
			return
		}
		p += int64(in) * int64(out) * int64(k) * int64(k)
		if repeat > 1 {
			p += int64(out) * int64(out) * int64(k) * int64(k) * int64(repeat-1)
		}
	}
	add(c.Stem.In, c.Stem.Out, c.Stem.Kernel, c.Stem.Repeat, false)
	for _, s := range c.Stages {
		add(s.In, s.Out, s.Kernel, s.Repeat, s.Bottleneck)
	}
	last := c.Stages[len(c.Stages)-1].Out
	if c.FCHidden > 0 {
		p += int64(last)*49*int64(c.FCHidden) + int64(c.FCHidden)*int64(c.FCHidden) + int64(c.FCHidden)*int64(c.Classes)
	} else {
		p += int64(last) * int64(c.Classes)
	}
	return p
}

// TrainFLOPsPerIter approximates forward+backward FLOPs for one
// iteration at the given global batch.
func (c CNN) TrainFLOPsPerIter(globalBatch int) float64 {
	res := float64(c.Input)
	var fwd float64
	conv := func(in, out, k, stride, repeat int, bottleneck bool) {
		res /= float64(stride)
		area := res * res
		if bottleneck {
			mid := float64(out) / 4
			per := 2 * area * (float64(in)*mid + mid*mid*float64(k*k) + mid*float64(out))
			fwd += per
			if repeat > 1 {
				fwd += 2 * area * (float64(out)*mid + mid*mid*float64(k*k) + mid*float64(out)) * float64(repeat-1)
			}
			return
		}
		fwd += 2 * area * float64(in) * float64(out) * float64(k*k)
		if repeat > 1 {
			fwd += 2 * area * float64(out) * float64(out) * float64(k*k) * float64(repeat-1)
		}
	}
	conv(c.Stem.In, c.Stem.Out, c.Stem.Kernel, c.Stem.Stride, c.Stem.Repeat, false)
	for _, s := range c.Stages {
		conv(s.In, s.Out, s.Kernel, s.Stride, s.Repeat, s.Bottleneck)
	}
	return 3 * fwd * float64(globalBatch)
}

// String implements fmt.Stringer.
func (c CNN) String() string {
	return fmt.Sprintf("%s (%.1fM params)", c.Name, float64(c.Params())/1e6)
}

// ResNet152 is the paper's vision workload (Fig. 10).
func ResNet152() CNN {
	return CNN{
		Name:  "ResNet152",
		Input: 224,
		Stem:  ConvStage{In: 3, Out: 64, Kernel: 7, Stride: 2, Repeat: 1},
		Stages: []ConvStage{
			{In: 64, Out: 256, Kernel: 3, Stride: 2, Repeat: 3, Bottleneck: true},
			{In: 256, Out: 512, Kernel: 3, Stride: 2, Repeat: 8, Bottleneck: true},
			{In: 512, Out: 1024, Kernel: 3, Stride: 2, Repeat: 36, Bottleneck: true},
			{In: 1024, Out: 2048, Kernel: 3, Stride: 2, Repeat: 3, Bottleneck: true},
		},
		Classes: 1000,
	}
}

// ResNet50 for the generality matrix.
func ResNet50() CNN {
	r := ResNet152()
	r.Name = "ResNet50"
	r.Stages[1].Repeat = 4
	r.Stages[2].Repeat = 6
	return r
}

// DenseNet201 approximated with widening stages.
func DenseNet201() CNN {
	return CNN{
		Name:  "DenseNet201",
		Input: 224,
		Stem:  ConvStage{In: 3, Out: 64, Kernel: 7, Stride: 2, Repeat: 1},
		Stages: []ConvStage{
			{In: 64, Out: 128, Kernel: 3, Stride: 2, Repeat: 6},
			{In: 128, Out: 256, Kernel: 3, Stride: 2, Repeat: 12},
			{In: 256, Out: 448, Kernel: 3, Stride: 2, Repeat: 24},
			{In: 448, Out: 512, Kernel: 3, Stride: 2, Repeat: 16},
		},
		Classes: 1000,
	}
}

// MobileNetV2 approximated with thin 3x3 stages.
func MobileNetV2() CNN {
	return CNN{
		Name:  "MobileNetV2",
		Input: 224,
		Stem:  ConvStage{In: 3, Out: 32, Kernel: 3, Stride: 2, Repeat: 1},
		Stages: []ConvStage{
			{In: 32, Out: 24, Kernel: 3, Stride: 2, Repeat: 2},
			{In: 24, Out: 32, Kernel: 3, Stride: 2, Repeat: 3},
			{In: 32, Out: 96, Kernel: 3, Stride: 2, Repeat: 4},
			{In: 96, Out: 320, Kernel: 3, Stride: 2, Repeat: 4},
		},
		Classes: 1000,
	}
}

// VGG19 with its dense head.
func VGG19() CNN {
	return CNN{
		Name:  "VGG19",
		Input: 224,
		Stem:  ConvStage{In: 3, Out: 64, Kernel: 3, Stride: 1, Repeat: 2},
		Stages: []ConvStage{
			{In: 64, Out: 128, Kernel: 3, Stride: 2, Repeat: 2},
			{In: 128, Out: 256, Kernel: 3, Stride: 2, Repeat: 4},
			{In: 256, Out: 512, Kernel: 3, Stride: 2, Repeat: 4},
			{In: 512, Out: 512, Kernel: 3, Stride: 2, Repeat: 4},
		},
		Classes:  1000,
		FCHidden: 4096,
	}
}
