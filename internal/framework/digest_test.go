package framework

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
	"maya/internal/workload"
)

// digestGrid is the set of training programs TestEmulatedTraceDigests
// pins: every Megatron feature path and every data-parallel strategy,
// on models small enough that all ranks of all configs emulate in a
// fraction of a second.
func digestGrid(t *testing.T) []struct {
	name string
	w    workload.Workload
	gpu  hardware.GPU
} {
	t.Helper()
	type entry = struct {
		name string
		w    workload.Workload
		gpu  hardware.GPU
	}
	var grid []entry
	megatron := func(name string, cfg MegatronConfig) {
		m, err := NewMegatron(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid = append(grid, entry{"megatron/" + name, m, hardware.H100()})
	}
	dp := func(name string, cfg DataParallelConfig) {
		d, err := NewDataParallel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid = append(grid, entry{"dp/" + name, d, hardware.A40()})
	}

	tiny := smallModel()
	megatron("base", MegatronConfig{Model: tiny, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2})
	megatron("sp-recompute-distopt", MegatronConfig{Model: tiny, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2,
		MicroBatches: 2, SeqParallel: true, ActRecompute: true, DistOptimizer: true})
	megatron("interleaved", MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 16, TP: 1, PP: 2,
		MicroBatches: 4, VirtualStages: 2})
	megatron("dualpipe", MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 16, TP: 1, PP: 2,
		MicroBatches: 4, DualPipe: true})
	megatron("no-dp-overlap-2it", MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 8, TP: 1, PP: 2,
		MicroBatches: 2, NoDPOverlap: true, Iterations: 2})
	megatron("moe", MegatronConfig{Model: moeModel(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 1, MicroBatches: 2})
	gated := tiny
	gated.GatedMLP = true
	megatron("gated-fp32", MegatronConfig{Model: gated, NGPUs: 2, GlobalBatch: 4, TP: 2, PP: 1,
		MicroBatches: 1, DType: "fp32"})
	megatron("single-gpu", MegatronConfig{Model: tiny, NGPUs: 1, GlobalBatch: 4, TP: 1, PP: 1, MicroBatches: 2})

	for _, s := range []DPStrategy{DDP, ZeRO1, ZeRO2, ZeRO3, FSDP} {
		dp("cnn-"+s.String(), DataParallelConfig{CNN: tinyCNN(), NGPUs: 2, GlobalBatch: 8, GradAccum: 2, Strategy: s})
		dp("transformer-"+s.String(), DataParallelConfig{Transformer: tinyTransformer(), NGPUs: 2,
			GlobalBatch: 8, GradAccum: 2, Strategy: s})
	}
	dp("cnn-compile-offload", DataParallelConfig{CNN: tinyCNN(), NGPUs: 2, GlobalBatch: 8,
		Strategy: ZeRO2, Compile: true, ActOffload: true})
	dp("transformer-single-gpu", DataParallelConfig{Transformer: tinyTransformer(), NGPUs: 1,
		GlobalBatch: 4, ActOffload: true})
	vgg := models.CNN{
		Name:  "tinyvgg",
		Input: 64,
		Stem:  models.ConvStage{In: 3, Out: 16, Kernel: 3, Stride: 1, Repeat: 1},
		Stages: []models.ConvStage{
			{In: 16, Out: 32, Kernel: 3, Stride: 2, Repeat: 2},
			{In: 32, Out: 64, Kernel: 3, Stride: 2, Repeat: 3},
		},
		Classes:  10,
		FCHidden: 128,
	}
	dp("vgg", DataParallelConfig{CNN: &vgg, NGPUs: 2, GlobalBatch: 8, Strategy: ZeRO3})
	return grid
}

// traceDigest runs one rank on a fresh emulator with the given memory
// and hashes everything its trace and error say: the encoder bytes of
// the (possibly partial) trace, its OOM flag, peak, tail gap and the
// error text.
func traceDigest(t *testing.T, w workload.Workload, rank int, gpu hardware.GPU) (uint64, int64) {
	t.Helper()
	em := emulator.New(emulator.Config{
		Rank: rank, World: w.World(), GPU: gpu, Host: hardware.EpycHost(),
	})
	runErr := w.Run(rank, em)
	tr := em.Trace()
	var enc trace.Encoder
	if err := enc.Job(&trace.Job{Workers: []*trace.Worker{tr}}); err != nil {
		t.Fatalf("encode rank %d: %v", rank, err)
	}
	h := fnv.New64a()
	h.Write(enc.B)
	fmt.Fprintf(h, "|oom=%t|peak=%d|tail=%d|err=%v", tr.OOM, tr.PeakBytes, tr.TailGap, runErr)
	return h.Sum64(), tr.PeakBytes
}

// TestEmulatedTraceDigests pins the device calls both training
// programs make, rank by rank: every rank of every grid config runs
// with full memory and again with memory capped at 30, 60, 90 and 99 %
// of its full-run peak, so the partial traces a failing rank leaves
// (which OOM captures and the probe's dedup read) are pinned too. The
// digests in testdata/trace-digests.txt must never be regenerated: a
// mismatch means the programs emit different calls.
func TestEmulatedTraceDigests(t *testing.T) {
	want := readDigests(t, "testdata/trace-digests.txt")
	seen := 0
	for _, g := range digestGrid(t) {
		for rank := 0; rank < g.w.World(); rank++ {
			full, peak := traceDigest(t, g.w, rank, g.gpu)
			check := func(name string, got uint64) {
				t.Helper()
				seen++
				w, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s: no recorded digest (got %016x)", name, got)
				case w != got:
					t.Errorf("%s: digest %016x, recorded %016x", name, got, w)
				}
			}
			check(fmt.Sprintf("%s/r%d/full", g.name, rank), full)
			for _, pct := range []int64{30, 60, 90, 99} {
				gpu := g.gpu
				gpu.MemBytes = peak * pct / 100
				d, _ := traceDigest(t, g.w, rank, gpu)
				check(fmt.Sprintf("%s/r%d/mem%d", g.name, rank, pct), d)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("grid has %d cases, %d recorded", seen, len(want))
	}
}

// readDigests parses "name hex-digest" lines.
func readDigests(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var d uint64
		if _, err := fmt.Sscanf(line, "%s %x", &name, &d); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		out[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
