package framework

import (
	"fmt"

	"maya/internal/models"
)

// Size bounds. Every size a rank emits — a malloc, a copy, a
// collective's payload, a kernel's bytes or FLOPs — must fit an
// int64: a size that overflows reaches the emulator as a negative
// request and fails the rank instead of the recipe being rejected.
// A size is either per sample, the micro-batch size times a product
// of model dimensions (activations, the work of a layer), or per
// model, a few bytes per parameter (parameters, gradients, optimizer
// state). Validate bounds the batch, each model dimension, the
// per-sample factor and the parameter count.

// maxGlobalBatch bounds the global batch of both programs. The
// micro-batch size, at most the global batch, multiplies a per-sample
// factor of at most maxSampleWork, so 2^20 samples keep every
// per-sample size under 2^62, half of int64's range. No recipe in the
// repository comes near it.
const maxGlobalBatch = 1 << 20

// maxSampleWork bounds a model's per-sample factor (transformerWork,
// cnnWork). The largest of any preset is GPT3-145.6B's, about 2^41.3,
// most of it the LM head GEMM's 2·seq·hidden·vocab FLOPs.
const maxSampleWork = 1 << 42

// maxParams bounds a model's parameter count. A rank keeps at most 20
// bytes per parameter in one allocation (fp32 Adam state), so 2^56
// parameters keep those under 2^61; the largest preset has about 2^37.5.
const maxParams = 1 << 56

// maxModelDim bounds every dimension of a model — a transformer's
// layers, hidden size, heads, FFN width, sequence, vocabulary and
// experts; a CNN's input resolution, channels, kernel sizes, strides,
// repeats, stages, classes and dense width. The largest of any preset
// is a 51 200-token vocabulary; at 2^20 each dimension, and every
// product of two the programs form in int, stays far from overflow.
// The per-sample and parameter bounds are what keep products of more
// dimensions in range.
const maxModelDim = 1 << 20

// dim checks that a model dimension lies in [lo, maxModelDim].
func dim(name string, v, lo int) error {
	if v < lo || v > maxModelDim {
		return fmt.Errorf("%s %d outside [%d, %d]", name, v, lo, maxModelDim)
	}
	return nil
}

// validateTransformer rejects a transformer whose dimensions or
// products of them leave the bounds above.
func validateTransformer(m models.Transformer) error {
	for _, d := range []struct {
		name   string
		v, min int
	}{
		{"layers", m.Layers, 1}, {"hidden", m.Hidden, 1}, {"heads", m.Heads, 1}, {"ffn", m.FFN, 1},
		{"seq", m.Seq, 1}, {"vocab", m.Vocab, 1}, {"experts", m.NumExperts, 0},
	} {
		if err := dim(d.name, d.v, d.min); err != nil {
			return err
		}
	}
	switch {
	case m.Heads > m.Hidden:
		return fmt.Errorf("%d heads exceed hidden size %d", m.Heads, m.Hidden)
	case m.NumExperts > 0 && (m.TopK < 0 || m.TopK > m.NumExperts):
		return fmt.Errorf("top-%d routing over %d experts", m.TopK, m.NumExperts)
	case transformerWork(m) > maxSampleWork:
		return fmt.Errorf("per-sample work %.3g above %d (seq %d, hidden %d, vocab %d)",
			transformerWork(m), maxSampleWork, m.Seq, m.Hidden, m.Vocab)
	case transformerParams(m) > maxParams:
		return fmt.Errorf("%.3g parameters above %d", transformerParams(m), maxParams)
	}
	return nil
}

// transformerWork is an upper bound on every per-sample factor a
// transformer's layers, embedding and head emit, at any tensor- or
// sequence-parallel degree (which only divide them). The terms are
// summed, so one bound covers them all:
//   - a GEMM's FLOPs, 2·seq·hidden·width, and a pointwise kernel's
//     bytes or FLOPs, at most 12·seq·width, where width is the widest
//     operand: 3·hidden (QKV), the FFN or, routed, top-k times the
//     wider of FFN and hidden, the vocabulary, the expert count;
//   - the attention score GEMMs, 2·seq²·hidden FLOPs, and the softmax
//     and dropout over the scores, at most 12·heads·seq²;
//   - the activations one micro-batch pins across every layer,
//     layers·(34·seq·hidden + 5·heads·seq²), the stage boundary,
//     4·seq·hidden, and the logits with their gradient, 8·seq·vocab.
func transformerWork(m models.Transformer) float64 {
	s, h, a, l, v := float64(m.Seq), float64(m.Hidden), float64(m.Heads), float64(m.Layers), float64(m.Vocab)
	k := float64(max(1, m.ExpertTopK()))
	width := max(3*h, k*max(float64(m.FFN), h), v, float64(m.NumExperts))
	return (2*h+12)*s*width + 2*s*s*h + 12*a*s*s + l*(34*s*h+5*a*s*s) + 4*s*h + 8*s*v
}

// transformerParams bounds a transformer's parameter count, every
// expert counted.
func transformerParams(m models.Transformer) float64 {
	h, f := float64(m.Hidden), float64(m.FFN)
	mlp := 3 * h * f * float64(max(1, m.NumExperts))
	return float64(m.Layers)*(4*h*h+mlp+h*float64(m.NumExperts)+4*h) + float64(m.Vocab+m.Seq)*h
}

// validateCNN rejects a CNN whose dimensions or products of them
// leave the bounds above, or whose geometry a rank cannot run: a
// resolution that shrinks to nothing, a stride of zero, a bottleneck
// too narrow for its quarter-width middle, no stage to end on.
func validateCNN(c *models.CNN) error {
	if err := dim("input", c.Input, 1); err != nil {
		return err
	}
	if len(c.Stages) < 1 || len(c.Stages) > maxModelDim {
		return fmt.Errorf("%d stages outside [1, %d]", len(c.Stages), maxModelDim)
	}
	for i, st := range append([]models.ConvStage{c.Stem}, c.Stages...) {
		for _, d := range []struct {
			name string
			v    int
		}{{"in", st.In}, {"out", st.Out}, {"kernel", st.Kernel}, {"stride", st.Stride}, {"repeat", st.Repeat}} {
			if err := dim(fmt.Sprintf("stage %d %s", i, d.name), d.v, 1); err != nil {
				return err
			}
		}
		if st.Bottleneck && st.Out < 4 {
			return fmt.Errorf("stage %d: bottleneck of %d channels", i, st.Out)
		}
	}
	if err := dim("classes", c.Classes, 1); err != nil {
		return err
	}
	if err := dim("dense width", c.FCHidden, 0); err != nil {
		return err
	}
	// The stem halves its output once more (max pool).
	res := c.Input / c.Stem.Stride / 2
	for _, st := range c.Stages {
		if res < 1 {
			break
		}
		res /= st.Stride
	}
	switch {
	case res < 1:
		return fmt.Errorf("input %d shrinks below one pixel", c.Input)
	case cnnWork(c) > maxSampleWork:
		return fmt.Errorf("per-image work %.3g above %d", cnnWork(c), maxSampleWork)
	case cnnParams(c) > maxParams:
		return fmt.Errorf("%.3g parameters above %d", cnnParams(c), maxParams)
	}
	return nil
}

// cnnWork is an upper bound on every per-image factor a CNN's layers
// emit, summed over the network as the rank walks it: per
// convolution, with c the wider of its stage's channel counts and r
// the resolution it reads, the convolution's FLOPs, 2·(r+1)²·c²·k²,
// and its batch-norm, activation, pooling and residual kernels, at
// most 32·c·(r+1)²; per stage the activations it keeps,
// 12·repeats·out·(r+1)²; and the head's dense layers and logits.
func cnnWork(c *models.CNN) float64 {
	conv := func(st models.ConvStage, r float64) float64 {
		ch, k := float64(max(st.In, st.Out)), float64(st.Kernel)
		return 2*(r+1)*(r+1)*ch*ch*k*k + 32*ch*(r+1)*(r+1) + 12*float64(st.Repeat*st.Out)*(r+1)*(r+1)
	}
	r := float64(c.Input)
	w := conv(c.Stem, r)
	r = float64(c.Input / c.Stem.Stride / 2)
	for _, st := range c.Stages {
		w += conv(st, r)
		r = float64(int(r) / st.Stride)
	}
	last, f, cl := float64(c.Stages[len(c.Stages)-1].Out), float64(c.FCHidden), float64(c.Classes)
	return w + 100*last*f + 2*cl*max(f, last) + 16*(last+cl+f)
}

// cnnParams bounds a CNN's parameter count.
func cnnParams(c *models.CNN) float64 {
	p := 0.0
	for _, st := range append([]models.ConvStage{c.Stem}, c.Stages...) {
		ch, k := float64(max(st.In, st.Out)), float64(st.Kernel)
		p += float64(st.Repeat) * ch * ch * (k*k + 2)
	}
	last, f, cl := float64(c.Stages[len(c.Stages)-1].Out), float64(c.FCHidden), float64(c.Classes)
	return p + 49*last*f + f*f + f*cl + last*cl
}
