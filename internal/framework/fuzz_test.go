package framework

import (
	"encoding/binary"
	"errors"
	"testing"

	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/workload"
)

// fuzzInts hands out ints from fuzz bytes: a byte below 0x80 is a
// small value in [-16, 111]; a byte with the top bit set is followed
// by eight bytes of a full 64-bit value, so overflowing products and
// huge degrees are reachable too. Exhausted input reads as 0 (the
// default).
type fuzzInts []byte

func (b *fuzzInts) next() int {
	if len(*b) == 0 {
		return 0
	}
	tag := (*b)[0]
	*b = (*b)[1:]
	if tag < 0x80 {
		return int(tag) - 16
	}
	if len(*b) < 8 {
		*b = nil
		return 0
	}
	v := int(int64(binary.LittleEndian.Uint64(*b)))
	*b = (*b)[8:]
	return v
}

// fuzzSeed encodes vals the way fuzzInts reads them back.
func fuzzSeed(vals ...int) []byte {
	var b []byte
	for _, v := range vals {
		if v >= -16 && v < 0x80-16 {
			b = append(b, byte(v+16))
			continue
		}
		b = binary.LittleEndian.AppendUint64(append(b, 0x80), uint64(v))
	}
	return b
}

func (b *fuzzInts) flag() bool { return b.next()&1 == 1 }

func (b *fuzzInts) dtype() string { return []string{"", "bf16", "fp16", "fp32"}[b.next()&3] }

// dims overwrites each dimension with the next value, a zero keeping
// what it was.
func (b *fuzzInts) dims(ds ...*int) {
	for _, d := range ds {
		if v := b.next(); v != 0 {
			*d = v
		}
	}
}

// FuzzTrainingConfigs decodes bytes into a Megatron and a
// data-parallel config. Construction must never panic; an accepted
// config must have at least one sample per microbatch and one
// iteration; and rank 0 of a small accepted config must emulate to
// success or out of memory.
func FuzzTrainingConfigs(f *testing.F) {
	// Megatron: experts, gated, ngpus, batch, tp, pp, microbatches, v,
	// dualpipe, sp, recompute, distopt, dtype, iterations, no-overlap;
	// then data-parallel: ngpus, batch, gradaccum, strategy, offload,
	// compile, dtype, iterations, model; then the Megatron model's
	// layers, hidden, heads, ffn, seq, vocab and top-k, and the
	// data-parallel model's (a transformer's layers, hidden, heads,
	// ffn, seq, vocab; a CNN's input, stem stride, first stage's
	// channels, second stage's stride, classes, dense width). Model
	// dimensions come last so that seeds without them keep the small
	// models.
	f.Add(fuzzSeed(0, 0, 8, 16, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 8, 2, 0, 0, 0, 0, 0, 0))
	f.Add(fuzzSeed(2, 1, 4, 8, 1, 2, 2, 2, 0, 0, 1, 1, 3, 2, 1, 4, 16, 2, 3, 1, 1, 2, 2, 1))
	f.Add(fuzzSeed(0, 0, 4, 8, 1, 2, 4, 0, 1, 0, 0, 0, 1, 1, 0, 2, 8, 1, 4, 0, 0, 3, 1, 0))
	f.Add(fuzzSeed(0, 0, 1<<32, 8, 1<<32, 1<<32, 1, 1, 0, 0, 0, 0, 0, -1, 0, 1<<32, 8, 1<<32, 7, 0, 0, 0, -1, 2))
	f.Add(fuzzSeed(0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 1<<60, 0, 0, 0, 0, 0, 0, 0, 0, 1<<40, 0, 0, 0, 0))
	f.Add(fuzzSeed(2, 0, 2, 4, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 1,
		2, 64, 8, 96, 32, 100, 3, 1, 32, 4, 48, 16, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInts(data)

		mdl := smallModel()
		mdl.NumExperts = []int{0, 2, 4, 8}[in.next()&3]
		mdl.GatedMLP = in.flag()
		mcfg := MegatronConfig{
			Model: mdl, NGPUs: in.next(), GlobalBatch: in.next(), TP: in.next(), PP: in.next(),
			MicroBatches: in.next(), VirtualStages: in.next(), DualPipe: in.flag(),
			SeqParallel: in.flag(), ActRecompute: in.flag(), DistOptimizer: in.flag(),
			DType: in.dtype(), Iterations: in.next(), NoDPOverlap: in.flag(),
		}
		dcfg := DataParallelConfig{
			NGPUs: in.next(), GlobalBatch: in.next(), GradAccum: in.next(),
			Strategy: DPStrategy(in.next()), ActOffload: in.flag(), Compile: in.flag(),
			DType: in.dtype(), Iterations: in.next(),
		}
		switch in.next() & 3 {
		case 0:
			dcfg.CNN = tinyCNN()
		case 1:
			dcfg.Transformer = tinyTransformer()
		case 2:
			dcfg.CNN, dcfg.Transformer = tinyCNN(), tinyTransformer()
		}
		m := &mcfg.Model
		in.dims(&m.Layers, &m.Hidden, &m.Heads, &m.FFN, &m.Seq, &m.Vocab, &m.TopK)
		if tm := dcfg.Transformer; tm != nil {
			in.dims(&tm.Layers, &tm.Hidden, &tm.Heads, &tm.FFN, &tm.Seq, &tm.Vocab)
		} else if c := dcfg.CNN; c != nil {
			in.dims(&c.Input, &c.Stem.Stride, &c.Stages[0].In, &c.Stages[0].Out, &c.Stages[1].Stride, &c.Classes, &c.FCHidden)
		}

		c := mcfg.withDefaults()
		valid := c.Validate() == nil
		if valid && (c.MicroBatchSize() < 1 || c.Iterations < 1) {
			t.Fatalf("accepted %+v: micro-batch size %d, %d iterations", c, c.MicroBatchSize(), c.Iterations)
		}
		// The schedule has 2*depth*microbatches steps (depth is PP*V, or
		// 2*PP under DualPipe): construct only where that is small.
		if !valid || c.MicroBatches <= (1<<12)/(c.PP*(c.VirtualStages+1)) {
			m, err := NewMegatron(mcfg)
			if (err == nil) != valid {
				t.Fatalf("Validate and NewMegatron disagree on %+v: %v", c, err)
			}
			// A rank launches kernels per layer: emulate only a short stack.
			if valid && c.NGPUs <= 16 && c.MicroBatches <= 16 && c.Iterations <= 2 && c.Model.Layers <= 64 {
				emulateRank0(t, m, hardware.H100())
			}
		}

		d, err := NewDataParallel(dcfg)
		if err != nil {
			return
		}
		dc := d.cfg
		if dc.MicroBatchSize() < 1 || dc.Iterations < 1 {
			t.Fatalf("accepted %+v: micro-batch size %d, %d iterations", dc, dc.MicroBatchSize(), dc.Iterations)
		}
		if dc.NGPUs <= 16 && dc.GradAccum <= 16 && dc.Iterations <= 2 && (dc.Transformer == nil || dc.Transformer.Layers <= 64) {
			emulateRank0(t, d, hardware.A40())
		}
	})
}

// emulateRank0 plays rank 0 of an accepted config: it must end in
// success or out of memory. Any other error (an invalid size from an
// overflowing product, say) or a panic fails.
func emulateRank0(t *testing.T, w workload.Workload, gpu hardware.GPU) {
	em := emulator.New(emulator.Config{World: w.World(), GPU: gpu, Host: hardware.EpycHost()})
	if err := w.Run(0, em); err != nil && !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("accepted %s: %v", w.Name(), err)
	}
	em.Trace()
}
