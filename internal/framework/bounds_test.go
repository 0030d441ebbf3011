package framework

import (
	"errors"
	"testing"

	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/workload"
)

// TestModelDimensionsBounded builds recipes whose model has a
// dimension, or a product of dimensions, that no rank can emit sizes
// for in an int64, or a geometry no rank can run. Every one must be
// rejected at construction. Then the largest accepted batch of a
// model near the per-sample bound must emulate rank 0 to success or
// out of memory, never to an invalid size.
func TestModelDimensionsBounded(t *testing.T) {
	tfm := func(edit func(*models.Transformer)) models.Transformer {
		m := smallModel()
		edit(&m)
		return m
	}
	transformers := map[string]models.Transformer{
		"seq 2^60":           tfm(func(m *models.Transformer) { m.Seq = 1 << 60 }),
		"hidden 2^40":        tfm(func(m *models.Transformer) { m.Hidden = 1 << 40 }),
		"ffn 2^50":           tfm(func(m *models.Transformer) { m.FFN = 1 << 50 }),
		"vocab 2^45":         tfm(func(m *models.Transformer) { m.Vocab = 1 << 45 }),
		"no heads":           tfm(func(m *models.Transformer) { m.Heads = 0 }),
		"heads over hidden":  tfm(func(m *models.Transformer) { m.Heads, m.Hidden = 1024, 512 }),
		"negative layers":    tfm(func(m *models.Transformer) { m.Layers = -4 }),
		"negative experts":   tfm(func(m *models.Transformer) { m.NumExperts = -2 }),
		"experts 2^40":       tfm(func(m *models.Transformer) { m.NumExperts = 1 << 40 }),
		"top-9 of 4 experts": tfm(func(m *models.Transformer) { m.NumExperts, m.TopK = 4, 9 }),
		"seq·hidden·vocab":   tfm(func(m *models.Transformer) { m.Seq, m.Hidden, m.Vocab = 1<<18, 1<<18, 1<<18 }),
		"layers·hidden·ffn": tfm(func(m *models.Transformer) {
			m.Layers, m.Hidden, m.FFN, m.Seq, m.Vocab, m.Heads = 1<<20, 1<<15, 1<<20, 1, 1, 1
		}),
		"seq²·hidden·heads":   tfm(func(m *models.Transformer) { m.Seq, m.Heads = 1<<20, 512 }),
		"routed tokens·width": tfm(func(m *models.Transformer) { m.NumExperts, m.TopK, m.FFN = 1<<10, 1<<10, 1<<20 }),
	}
	for name, m := range transformers {
		if _, err := NewMegatron(MegatronConfig{Model: m, NGPUs: 1, GlobalBatch: 1, TP: 1, PP: 1, MicroBatches: 1}); err == nil {
			t.Errorf("megatron, %s: accepted", name)
		}
		if _, err := NewDataParallel(DataParallelConfig{Transformer: &m, NGPUs: 1, GlobalBatch: 1}); err == nil {
			t.Errorf("dataparallel, %s: accepted", name)
		}
	}

	cnn := func(edit func(*models.CNN)) *models.CNN {
		c := tinyCNN()
		c.Stages = append([]models.ConvStage(nil), c.Stages...)
		edit(c)
		return c
	}
	cnns := map[string]*models.CNN{
		"input 2^40":           cnn(func(c *models.CNN) { c.Input = 1 << 40 }),
		"stride 0":             cnn(func(c *models.CNN) { c.Stem.Stride = 0 }),
		"kernel 0":             cnn(func(c *models.CNN) { c.Stages[0].Kernel = 0 }),
		"no stages":            cnn(func(c *models.CNN) { c.Stages = nil }),
		"no classes":           cnn(func(c *models.CNN) { c.Classes = 0 }),
		"negative dense width": cnn(func(c *models.CNN) { c.FCHidden = -1 }),
		"narrow bottleneck":    cnn(func(c *models.CNN) { c.Stages[1].Out = 2 }),
		"shrinks to nothing":   cnn(func(c *models.CNN) { c.Input = 8 }),
		"channels²·input²":     cnn(func(c *models.CNN) { c.Input, c.Stages[0].In, c.Stages[0].Out = 1<<12, 1<<16, 1<<16 }),
	}
	for name, c := range cnns {
		if _, err := NewDataParallel(DataParallelConfig{CNN: c, NGPUs: 1, GlobalBatch: 1}); err == nil {
			t.Errorf("dataparallel, %s: accepted", name)
		}
	}

	// A model just under the per-sample bound at the largest batch:
	// the head GEMM alone is 2^20 · 2·4096·8192·51200 FLOPs ≈ 2^61.7.
	big := tfm(func(m *models.Transformer) {
		m.Layers, m.Seq, m.Hidden, m.Heads, m.FFN, m.Vocab = 1, 4096, 8192, 64, 8192, 51200
	})
	bigCNN := cnn(func(c *models.CNN) { c.Input = 1024 })
	for name, build := range map[string]func() (workload.Workload, error){
		"megatron": func() (workload.Workload, error) {
			return NewMegatron(MegatronConfig{Model: big, NGPUs: 1, GlobalBatch: maxGlobalBatch, TP: 1, PP: 1, MicroBatches: 1})
		},
		"ddp/transformer": func() (workload.Workload, error) {
			return NewDataParallel(DataParallelConfig{Transformer: &big, NGPUs: 1, GlobalBatch: maxGlobalBatch})
		},
		"ddp/cnn": func() (workload.Workload, error) {
			return NewDataParallel(DataParallelConfig{CNN: bigCNN, NGPUs: 1, GlobalBatch: maxGlobalBatch})
		},
	} {
		w, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		em := emulator.New(emulator.Config{World: w.World(), GPU: hardware.H100(), Host: hardware.EpycHost()})
		if err := w.Run(0, em); err != nil && !errors.Is(err, cuda.ErrOutOfMemory) {
			t.Errorf("%s: rank 0: %v", name, err)
		}
	}
}
