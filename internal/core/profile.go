package core

import (
	"context"
	"fmt"

	"maya/internal/emulator"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/silicon"
	"maya/internal/trace"
	"maya/internal/workload"
)

// scrapeWorkload runs rank 0 of a workload under the emulator and
// measures every compute/memory op with the oracle, producing profile
// samples whose feature shapes are exactly what real traces contain.
// This is the paper's approach for the long tail of kernels:
// "scraped from traces, collected by running a single-layer model
// over a range of batch sizes and tensor-parallel dimensions".
// Collectives are excluded — the dense nccl-tests-style sweep covers
// them with controlled topology.
func scrapeWorkload(oracle *silicon.Oracle, cluster hardware.Cluster, w workload.Workload, id *int64) ([]estimator.ProfileSample, error) {
	em := emulator.New(emulator.Config{
		Rank:  0,
		World: w.World(),
		GPU:   cluster.Node.GPU,
		Host:  cluster.Host,
	})
	defer em.Release()
	if err := w.Run(0, em); err != nil {
		return nil, fmt.Errorf("core: scraping %s: %w", w.Name(), err)
	}
	tr := em.Trace()
	out := make([]estimator.ProfileSample, 0, len(tr.Ops)/2)
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if !op.IsDeviceWork() || op.Kind == trace.KindCollective {
			continue
		}
		*id++
		dur := oracle.Measure(op, nil, *id)
		out = append(out, estimator.ProfileSample{Op: *op, Dur: dur})
	}
	return out, nil
}

// scrapeLLMProfile sweeps single-layer transformer variants across
// hidden sizes, sequence lengths, microbatch sizes and TP degrees.
func scrapeLLMProfile(ctx context.Context, oracle *silicon.Oracle, cluster hardware.Cluster) ([]estimator.ProfileSample, error) {
	type shape struct {
		hidden, heads int
	}
	shapes := []shape{
		{1024, 16}, {2048, 16}, {2560, 32}, {4096, 32}, {6144, 48}, {8192, 64},
	}
	seqs := []int{1024, 2048, 4096}
	tps := []int{1, 2, 4, 8}
	batches := []int{1, 2, 4, 8}

	var out []estimator.ProfileSample
	id := int64(1 << 40)
	maxTP := cluster.Node.GPUsPerNode
	for _, sh := range shapes {
		for _, seq := range seqs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, tp := range tps {
				if tp > maxTP || sh.heads%tp != 0 || 51200%tp != 0 {
					continue
				}
				for _, b := range batches {
					mdl := models.Transformer{
						Name: "scrape", Layers: 1, Hidden: sh.hidden, Heads: sh.heads,
						FFN: 4 * sh.hidden, Seq: seq, Vocab: 51200,
					}
					m, err := framework.NewMegatron(framework.MegatronConfig{
						Model: mdl, NGPUs: tp, GlobalBatch: b, TP: tp, PP: 1, MicroBatches: 1,
					})
					if err != nil {
						return nil, err
					}
					samples, err := scrapeWorkload(oracle, cluster, m, &id)
					if err != nil {
						// Single-layer probes can exceed memory at the
						// largest shapes; skip those points.
						continue
					}
					out = append(out, samples...)
				}
			}
		}
	}
	// Gated-MLP (Llama-style) coverage.
	for _, b := range []int{1, 4} {
		mdl := models.Transformer{
			Name: "scrape-gated", Layers: 1, Hidden: 4096, Heads: 32,
			FFN: 11008, GatedMLP: true, Seq: 4096, Vocab: 32000,
		}
		m, err := framework.NewMegatron(framework.MegatronConfig{
			Model: mdl, NGPUs: 2, GlobalBatch: b, TP: 2, PP: 1, MicroBatches: 1,
		})
		if err != nil {
			return nil, err
		}
		samples, err := scrapeWorkload(oracle, cluster, m, &id)
		if err != nil {
			continue
		}
		out = append(out, samples...)
	}
	return out, nil
}

// scrapeVisionProfile sweeps small CNN variants (with and without
// torch.compile) across batch sizes.
func scrapeVisionProfile(ctx context.Context, oracle *silicon.Oracle, cluster hardware.Cluster) ([]estimator.ProfileSample, error) {
	var out []estimator.ProfileSample
	id := int64(2 << 40)
	cnns := []models.CNN{models.ResNet50(), models.MobileNetV2(), models.VGG19()}
	for _, cnn := range cnns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, b := range []int{4, 16, 32, 64} {
			for _, compile := range []bool{false, true} {
				c := cnn
				dp, err := framework.NewDataParallel(framework.DataParallelConfig{
					CNN: &c, NGPUs: 1, GlobalBatch: b, Compile: compile,
				})
				if err != nil {
					return nil, err
				}
				samples, err := scrapeWorkload(oracle, cluster, dp, &id)
				if err != nil {
					continue
				}
				out = append(out, samples...)
			}
		}
	}
	// A small transformer under DDP covers the NLP kernels vision
	// clusters also run (BERT/T5 in the generality study).
	small := models.BERTLarge()
	dp, err := framework.NewDataParallel(framework.DataParallelConfig{
		Transformer: &small, NGPUs: 1, GlobalBatch: 8,
	})
	if err != nil {
		return nil, err
	}
	samples, err := scrapeWorkload(oracle, cluster, dp, &id)
	if err == nil {
		out = append(out, samples...)
	}
	return out, nil
}

// BuildProfile assembles the full training corpus for a cluster:
// dense synthetic sweeps for heavy hitters plus trace-scraped tails.
// The scrape sweeps observe ctx so a cancelled warm-up stops without
// finishing the corpus.
func BuildProfile(ctx context.Context, oracle *silicon.Oracle, cluster hardware.Cluster, kind estimator.ProfileKind) ([]estimator.ProfileSample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profile := estimator.SyntheticProfile(oracle, cluster, kind, 0xA11CE)
	if kind == estimator.ProfileLLM || kind == estimator.ProfileAll {
		scraped, err := scrapeLLMProfile(ctx, oracle, cluster)
		if err != nil {
			return nil, err
		}
		profile = append(profile, scraped...)
	}
	if kind == estimator.ProfileVision || kind == estimator.ProfileAll {
		scraped, err := scrapeVisionProfile(ctx, oracle, cluster)
		if err != nil {
			return nil, err
		}
		profile = append(profile, scraped...)
	}
	return profile, nil
}
