package experiments

// Table 4 (framework/model generality) and Fig. 10 (ResNet-152 on
// 8xA40): Maya's emulation must run unmodified across DeepSpeed-style
// ZeRO stages with activation offload, FSDP, DDP and torch.compile,
// over both vision and NLP models, producing well-formed traces.

import (
	"context"
	"fmt"
	"time"

	"maya"
	"maya/internal/collator"
	"maya/internal/emulator"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
	"maya/internal/workload"
)

func init() {
	register("table4", table4)
	register("fig10", fig10)
}

// generalityWorkloads builds the (framework-config, model) matrix of
// Table 4.
func generalityWorkloads() ([]workload.Workload, error) {
	type combo struct {
		label    string
		strategy framework.DPStrategy
		offload  bool
		compile  bool
	}
	combos := []combo{
		{"pytorch-ddp", framework.DDP, false, false},
		{"pytorch-fsdp", framework.FSDP, false, false},
		{"pytorch-compile", framework.DDP, false, true},
		{"deepspeed-zero1", framework.ZeRO1, false, false},
		{"deepspeed-zero2", framework.ZeRO2, false, false},
		{"deepspeed-zero3", framework.ZeRO3, false, false},
		{"deepspeed-offload", framework.ZeRO2, true, false},
	}
	transformers := []models.Transformer{
		models.BERTLarge(), models.GPT3Small345M(), models.Llama2_7B(),
		models.T5Large(), models.ViTLarge(),
	}
	cnns := []models.CNN{
		models.ResNet152(), models.DenseNet201(), models.MobileNetV2(), models.VGG19(),
	}
	var out []workload.Workload
	for _, c := range combos {
		for i := range transformers {
			mdl := transformers[i]
			w, err := framework.NewDataParallel(framework.DataParallelConfig{
				Transformer: &mdl, NGPUs: 4, GlobalBatch: 8,
				Strategy: c.strategy, ActOffload: c.offload, Compile: c.compile,
			})
			if err != nil {
				return nil, fmt.Errorf("generality %s/%s: %w", c.label, mdl.Name, err)
			}
			out = append(out, w)
		}
		for i := range cnns {
			mdl := cnns[i]
			w, err := framework.NewDataParallel(framework.DataParallelConfig{
				CNN: &mdl, NGPUs: 4, GlobalBatch: 64,
				Strategy: c.strategy, ActOffload: c.offload, Compile: c.compile,
			})
			if err != nil {
				return nil, fmt.Errorf("generality %s/%s: %w", c.label, mdl.Name, err)
			}
			out = append(out, w)
		}
	}
	return out, nil
}

func table4(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "Framework/model generality: emulation produces valid traces",
		Header: []string{"workload", "ranks", "ops/rank", "kernels", "collectives", "memcpys", "peak mem", "status"},
	}
	cluster := hardware.A40Node()
	ws, err := generalityWorkloads()
	if err != nil {
		return nil, err
	}
	failures := 0
	for _, w := range ws {
		em := emulator.New(emulator.Config{
			Rank: 0, World: w.World(), GPU: cluster.Node.GPU, Host: cluster.Host,
		})
		status := "ok"
		if err := w.Run(0, em); err != nil {
			status = "FAIL: " + err.Error()
		}
		tr := em.Trace()
		if tr.OOM {
			status = "oom"
		}
		if _, err := collator.Collate(ctx, []*trace.Worker{tr}, collator.Options{Validate: true}); err != nil {
			status = "collate FAIL: " + err.Error()
		}
		st := tr.Stats()
		t.Rows = append(t.Rows, []string{
			w.Name(), fmt.Sprint(w.World()), fmt.Sprint(st.Ops),
			fmt.Sprint(st.Kernels), fmt.Sprint(st.Collectives), fmt.Sprint(st.Memcpys),
			fmt.Sprintf("%.1fGiB", float64(tr.PeakBytes)/(1<<30)), status,
		})
		em.Release()
		if status != "ok" && status != "oom" {
			failures++
		}
	}
	t.claim("failures", float64(failures))
	t.Notes = append(t.Notes,
		"offload variants produce HtoD/DtoH memcpys with faithful shapes, per §7.2 Framework Generality")
	return t, nil
}

func fig10(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "ResNet-152 prediction accuracy on 8xA40 (heterogeneous links, torch.compile)",
		Header: []string{"cfg", "batch", "accum", "compile", "actual", "maya", "err"},
	}
	pred, err := e.predictor(hardware.A40Node(), estimator.ProfileVision, false)
	if err != nil {
		return nil, err
	}
	mdl := models.ResNet152()

	var within5, total int
	id := 0
	batches := []int{64, 128, 256, 512}
	accums := []int{1, 2, 4}
	if e.Scale == Quick {
		batches = []int{64, 256}
		accums = []int{1, 2}
	}
	for _, batch := range batches {
		for _, accum := range accums {
			for _, compile := range []bool{false, true} {
				m := mdl
				w, err := framework.NewDataParallel(framework.DataParallelConfig{
					CNN: &m, NGPUs: 8, GlobalBatch: batch, GradAccum: accum, Compile: compile,
				})
				if err != nil {
					return nil, err
				}
				opts := []maya.PredictOption{maya.WithModelFLOPs(mdl.TrainFLOPsPerIter(batch)), maya.WithDType(maya.FP16)}
				predicted, err := pred.Predict(ctx, w, opts...)
				if err != nil {
					return nil, err
				}
				actual, err := pred.MeasureActual(ctx, w, opts...)
				if err != nil {
					return nil, err
				}
				if predicted.OOM || actual.OOM {
					continue
				}
				errFrac := relErr(predicted.IterTime, actual.IterTime)
				total++
				if errFrac < 0.05 {
					within5++
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(id), fmt.Sprint(batch), fmt.Sprint(accum), fmt.Sprint(compile),
					fmtMS(actual.IterTime), fmtMS(predicted.IterTime), pct(errFrac),
				})
				id++
			}
		}
	}
	if total > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d/%d configurations within 5%% error (paper: over half)", within5, total))
		t.claim("within5_frac", float64(within5)/float64(total))
	}
	return t, nil
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.0fms", float64(d.Microseconds())/1000)
}
