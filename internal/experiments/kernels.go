package experiments

// Tables 7-9: held-out per-kernel mean absolute percentage error of
// the trained runtime estimators on each architecture, plus a
// trace-coverage probe: a representative workload is captured once
// (emulate + collate only, no training) and its kernel launches are
// checked against the trained estimator set.

import (
	"context"
	"fmt"
	"sort"

	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/workload"
)

func init() {
	register("table7", func(ctx context.Context, e *Env) (*Table, error) {
		return kernelMAPETable(ctx, e, "table7", hardware.DGXH100(4), estimator.ProfileLLM)
	})
	register("table8", func(ctx context.Context, e *Env) (*Table, error) {
		return kernelMAPETable(ctx, e, "table8", hardware.DGXV100(2), estimator.ProfileLLM)
	})
	register("table9", func(ctx context.Context, e *Env) (*Table, error) {
		return kernelMAPETable(ctx, e, "table9", hardware.A40Node(), estimator.ProfileVision)
	})
}

// coverageWorkload is the small representative workload of a profile
// kind whose captured kernel launches the coverage probe checks
// against the trained estimator set.
func coverageWorkload(kind estimator.ProfileKind) (workload.Workload, error) {
	if kind == estimator.ProfileVision {
		mdl := models.ResNet152()
		return framework.NewDataParallel(framework.DataParallelConfig{CNN: &mdl, NGPUs: 8, GlobalBatch: 64})
	}
	return framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
}

func kernelMAPETable(ctx context.Context, e *Env, id string, cluster hardware.Cluster, kind estimator.ProfileKind) (*Table, error) {
	mape, err := e.heldOutMAPE(ctx, cluster, kind)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Held-out per-kernel MAPE, %s estimators", cluster.Name),
		Header: []string{"kernel", "MAPE"},
	}
	names := make([]string, 0, len(mape))
	for n := range mape {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return mape[names[i]] < mape[names[j]] })
	var heavySum float64
	var heavyN int
	for _, n := range names {
		t.Rows = append(t.Rows, []string{n, pct(mape[n])})
		switch n {
		case "cublasGemmEx", "cublasSgemm_v2", "cublasSgemmStridedBatched",
			"cudnnConvolutionForward", "cudnnConvolutionBackwardData",
			"cudnnConvolutionBackwardFilter", "triton":
			heavySum += mape[n]
			heavyN++
		}
	}
	if heavyN > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"heavy-hitter kernels (GEMM/conv/triton) mean MAPE: %s — these dominate end-to-end time", pct(heavySum/float64(heavyN))))
		t.claim("heavy_mape", heavySum/float64(heavyN))
	}
	w, err := coverageWorkload(kind)
	if err != nil {
		return nil, err
	}
	launches, oom, err := e.kernelLaunches(ctx, cluster, w)
	if err != nil {
		return nil, err
	}
	cover := "capture probe: representative workload OOMs on this cluster"
	if !oom {
		covered, names := 0, map[string]bool{}
		for _, n := range launches {
			names[n] = true
			if _, ok := mape[n]; ok {
				covered++
			}
		}
		cover = fmt.Sprintf("capture probe: %d/%d kernel launches (%d distinct names) of a captured %s trace have trained estimators",
			covered, len(launches), len(names), w.Name())
		t.claim("coverage", float64(covered)/float64(len(launches)))
	}
	t.Notes = append(t.Notes, cover,
		"large percentage errors concentrate in very short kernels, which do not affect end-to-end accuracy (paper's observation)")
	return t, nil
}
