package maya

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"maya/internal/core"
	"maya/internal/cuda"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/workload"
)

// captureDigestPath holds one digest per capture of
// TestCaptureDigests, recorded once; it must never be regenerated.
const captureDigestPath = "internal/core/testdata/capture-digests.txt"

// digestCase is one capture TestCaptureDigests pins: a workload on a
// cluster, deduplicated or not.
type digestCase struct {
	name    string
	w       workload.Workload
	cluster hardware.Cluster
	noDedup bool
}

// captureDigestCases are the training programs of the emulator's
// digest grid (internal/framework's TestEmulatedTraceDigests), each
// captured as a default predictor captures it, plus one capture that
// runs out of memory, the paper's probe of all 256 ranks of a job,
// and one capture without dedup.
func captureDigestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase
	megatron := func(name string, cfg framework.MegatronConfig) *framework.Megatron {
		m, err := framework.NewMegatron(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, digestCase{name: "megatron/" + name, w: m, cluster: hardware.DGXH100(1)})
		return m
	}
	dp := func(name string, cfg framework.DataParallelConfig) {
		d, err := framework.NewDataParallel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, digestCase{name: "dp/" + name, w: d, cluster: hardware.A40Node()})
	}

	tiny := models.Transformer{Name: "tiny", Layers: 4, Hidden: 512, Heads: 8, FFN: 2048, Seq: 256, Vocab: 3200}
	base := megatron("base", framework.MegatronConfig{Model: tiny, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2})
	megatron("sp-recompute-distopt", framework.MegatronConfig{Model: tiny, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2,
		MicroBatches: 2, SeqParallel: true, ActRecompute: true, DistOptimizer: true})
	megatron("interleaved", framework.MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 16, TP: 1, PP: 2,
		MicroBatches: 4, VirtualStages: 2})
	megatron("dualpipe", framework.MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 16, TP: 1, PP: 2,
		MicroBatches: 4, DualPipe: true})
	megatron("no-dp-overlap-2it", framework.MegatronConfig{Model: tiny, NGPUs: 4, GlobalBatch: 8, TP: 1, PP: 2,
		MicroBatches: 2, NoDPOverlap: true, Iterations: 2})
	moe := tiny
	moe.NumExperts, moe.TopK = 8, 2
	megatron("moe", framework.MegatronConfig{Model: moe, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 1, MicroBatches: 2})
	gated := tiny
	gated.GatedMLP = true
	megatron("gated-fp32", framework.MegatronConfig{Model: gated, NGPUs: 2, GlobalBatch: 4, TP: 2, PP: 1,
		MicroBatches: 1, DType: "fp32"})
	megatron("single-gpu", framework.MegatronConfig{Model: tiny, NGPUs: 1, GlobalBatch: 4, TP: 1, PP: 1, MicroBatches: 2})

	cnn := &models.CNN{
		Name:  "tinycnn",
		Input: 64,
		Stem:  models.ConvStage{In: 3, Out: 16, Kernel: 3, Stride: 2, Repeat: 1},
		Stages: []models.ConvStage{
			{In: 16, Out: 32, Kernel: 3, Stride: 2, Repeat: 2},
			{In: 32, Out: 64, Kernel: 3, Stride: 2, Repeat: 2, Bottleneck: true},
		},
		Classes: 10,
	}
	transformer := &models.Transformer{Name: "tinyT", Layers: 2, Hidden: 256, Heads: 4, FFN: 1024, Seq: 128, Vocab: 1600}
	for _, s := range []framework.DPStrategy{framework.DDP, framework.ZeRO1, framework.ZeRO2, framework.ZeRO3, framework.FSDP} {
		dp("cnn-"+s.String(), framework.DataParallelConfig{CNN: cnn, NGPUs: 2, GlobalBatch: 8, GradAccum: 2, Strategy: s})
		dp("transformer-"+s.String(), framework.DataParallelConfig{Transformer: transformer, NGPUs: 2,
			GlobalBatch: 8, GradAccum: 2, Strategy: s})
	}
	dp("cnn-compile-offload", framework.DataParallelConfig{CNN: cnn, NGPUs: 2, GlobalBatch: 8,
		Strategy: framework.ZeRO2, Compile: true, ActOffload: true})
	dp("transformer-single-gpu", framework.DataParallelConfig{Transformer: transformer, NGPUs: 1,
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
	dp("vgg", framework.DataParallelConfig{CNN: &vgg, NGPUs: 2, GlobalBatch: 8, Strategy: framework.ZeRO3})

	// 100 MiB is under the 143 MB the base job peaks at.
	capped := hardware.DGXH100(1)
	capped.Node.GPU.MemBytes = 100 << 20
	cases = append(cases, digestCase{name: "oom/megatron/base", w: base, cluster: capped})
	cases = append(cases, digestCase{name: "nodedup/megatron/base", w: base, cluster: hardware.DGXH100(1), noDedup: true})

	hyper, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 256, GlobalBatch: 128, TP: 2, PP: 2, MicroBatches: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hyper.Probe() != workload.Workload(hyper) {
		t.Fatal("the 256-rank job is no longer its own probe")
	}
	cases = append(cases, digestCase{name: "probe/gpt3-1.3b@256xV100", w: probeOnly{hyper}, cluster: hardware.DGXV100(32)})
	return cases
}

// probeOnly is a one-iteration Megatron job that does not name its
// unique ranks, so every route, the predictor's included, captures it
// through the paper's probe of all ranks, the job its own probe.
type probeOnly struct{ m *framework.Megatron }

func (p probeOnly) Name() string                        { return p.m.Name() }
func (p probeOnly) World() int                          { return p.m.World() }
func (p probeOnly) Run(rank int, dev cuda.Device) error { return p.m.Run(rank, dev) }
func (p probeOnly) CommGroups() map[uint64][]int        { return p.m.CommGroups() }
func (p probeOnly) Probe() workload.Workload            { return p }

// captureDigest hashes what a capture says of the emulation: which
// ranks dedup kept, the communicator membership, the peak and the OOM
// verdict, and the capture's WriteTo bytes with its timings zeroed.
func captureDigest(t *testing.T, c *core.Capture) uint64 {
	t.Helper()
	h := fnv.New64a()
	var ranks []int
	if c.Job != nil {
		for _, w := range c.Job.Workers {
			ranks = append(ranks, w.Rank)
		}
	}
	fmt.Fprintf(h, "workers=%d/%d/%v|", c.UniqueWorkers, c.TotalWorkers, ranks)
	for _, id := range slices.Sorted(maps.Keys(c.Comms)) {
		fmt.Fprintf(h, "comm %d=%v|", id, c.Comms[id])
	}
	for _, id := range slices.Sorted(maps.Keys(c.CommSizes)) {
		fmt.Fprintf(h, "size %d=%d|", id, c.CommSizes[id])
	}
	fmt.Fprintf(h, "peak=%d|oom=%t|", c.PeakMemBytes, c.OOM)
	emulate, collate := c.EmulateTime, c.CollateTime
	c.EmulateTime, c.CollateTime = 0, 0
	_, err := c.WriteTo(h)
	c.EmulateTime, c.CollateTime = emulate, collate
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestCaptureDigests pins what a capture holds on each of its three
// routes: captured and released by its one owner, captured and kept,
// and handed out by Predictor.Capture. Every route must give the
// digest recorded in captureDigestPath; a mismatch means a capture
// route changed what it emulates, dedups or seals.
func TestCaptureDigests(t *testing.T) {
	ctx := context.Background()
	want := readCaptureDigests(t, captureDigestPath)
	cases := captureDigestCases(t)
	if len(cases) != len(want) {
		t.Errorf("%d cases, %d recorded", len(cases), len(want))
	}
	for _, dc := range cases {
		pipe := &core.Pipeline{Cluster: dc.cluster, Opts: core.Options{SelectiveLaunch: true, NoDedup: dc.noDedup}}
		var opts []PredictorOption
		if dc.noDedup {
			opts = append(opts, WithoutDedup())
		}
		pred, err := NewPredictor(dc.cluster, ProfileLLM, opts...)
		if err != nil {
			t.Fatal(err)
		}
		routes := []struct {
			name    string
			capture func() uint64
		}{
			{"released", func() uint64 {
				c, err := pipe.Capture(ctx, dc.w)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Release()
				return captureDigest(t, c)
			}},
			{"kept", func() uint64 {
				c, err := pipe.Capture(ctx, dc.w)
				if err != nil {
					t.Fatal(err)
				}
				c.Keep()
				return captureDigest(t, c)
			}},
			{"predictor", func() uint64 {
				tr, err := pred.Capture(ctx, dc.w)
				if err != nil {
					t.Fatal(err)
				}
				return captureDigest(t, tr.cap)
			}},
		}
		for _, r := range routes {
			got := r.capture()
			switch w, ok := want[dc.name]; {
			case !ok:
				t.Errorf("%s: no recorded digest (%s route gives %016x)", dc.name, r.name, got)
			case got != w:
				t.Errorf("%s: %s route gives %016x, recorded %016x", dc.name, r.name, got, w)
			}
		}
	}
}

// readCaptureDigests parses "name hex-digest" lines.
func readCaptureDigests(t *testing.T, path string) map[string]uint64 {
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
