package serve

import (
	"fmt"
	"strings"

	"maya"
	"maya/internal/models"
	"maya/internal/workload"
)

// PredictSpec is the wire form of one prediction (or capture)
// request: a Megatron-style recipe by model preset name, plus the
// per-call knobs of the prediction. The service fronts one cluster;
// the spec's world size is always that cluster's GPU count, so the
// same spec is portable across deployments. Cluster, when set, is an
// assertion: a spec pinned to a different cluster than the server's
// is rejected rather than silently re-targeted.
type PredictSpec struct {
	// Cluster optionally asserts which cluster the caller believes it
	// is talking to (e.g. "32xH100").
	Cluster string `json:"cluster,omitempty"`

	// Model is a preset name (gpt3-1.3b, gpt3-18.4b, llama2-7b, ...).
	Model string `json:"model"`
	// GlobalBatch is the global batch size in sequences.
	GlobalBatch int `json:"global_batch"`
	// TP, PP, MicroBatches, VirtualStages shape the parallelism.
	// MicroBatches is at most maxMicroBatches.
	TP            int `json:"tp,omitempty"`
	PP            int `json:"pp,omitempty"`
	MicroBatches  int `json:"micro_batches,omitempty"`
	VirtualStages int `json:"virtual_stages,omitempty"`
	// SeqParallel, ActRecompute, DistOptimizer are the recipe toggles.
	SeqParallel   bool `json:"seq_parallel,omitempty"`
	ActRecompute  bool `json:"act_recompute,omitempty"`
	DistOptimizer bool `json:"dist_optimizer,omitempty"`

	// Annotation selects kernel-time annotation: "learned" (default),
	// "oracle", "physical" or "netsim".
	Annotation string `json:"annotation,omitempty"`
	// DType is the training precision MFU normalizes by: "bf16"
	// (default), "fp16" or "fp32".
	DType string `json:"dtype,omitempty"`
	// FLOPs overrides the per-iteration model FLOPs; 0 derives it from
	// the model preset, so MFU is reported by default.
	FLOPs float64 `json:"flops,omitempty"`
	// Seed namespaces the synthetic silicon's measurement randomness.
	Seed uint64 `json:"seed,omitempty"`
	// DeadlineMS bounds this request's wall clock; 0 uses the server
	// default, and values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Annotation modes.
const (
	annLearned  = "learned"
	annOracle   = "oracle"
	annPhysical = "physical"
	annNetsim   = "netsim"
)

// maxMicroBatches bounds a spec's micro_batches: the pipeline
// schedule, and every rank's emulation, grow linearly with it, so an
// unbounded value lets one request take the server's memory.
const maxMicroBatches = 1 << 10

// normalize fills defaults and validates enumerations and the
// micro-batch bound; it does not touch recipe arithmetic (NewMegatron
// owns that).
func (s *PredictSpec) normalize() error {
	if s.Model == "" {
		return fmt.Errorf("missing model")
	}
	if s.GlobalBatch <= 0 {
		return fmt.Errorf("global_batch must be positive, got %d", s.GlobalBatch)
	}
	if s.TP <= 0 {
		s.TP = 1
	}
	if s.PP <= 0 {
		s.PP = 1
	}
	if s.MicroBatches <= 0 {
		s.MicroBatches = 1
	}
	if s.MicroBatches > maxMicroBatches {
		return fmt.Errorf("micro_batches must be at most %d, got %d", maxMicroBatches, s.MicroBatches)
	}
	if s.VirtualStages <= 0 {
		s.VirtualStages = 1
	}
	switch s.Annotation {
	case "":
		s.Annotation = annLearned
	case annLearned, annOracle, annPhysical, annNetsim:
	default:
		return fmt.Errorf("unknown annotation %q (have learned, oracle, physical, netsim)", s.Annotation)
	}
	switch strings.ToLower(s.DType) {
	case "":
		s.DType = string(maya.BF16)
	case string(maya.BF16), string(maya.FP16), string(maya.FP32):
		s.DType = strings.ToLower(s.DType)
	default:
		return fmt.Errorf("unknown dtype %q (have bf16, fp16, fp32)", s.DType)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be non-negative, got %d", s.DeadlineMS)
	}
	return nil
}

// build materializes the spec against the serving cluster: the
// workload, the per-iteration FLOPs, and the PredictOptions of the
// call. Specs asserting a different cluster fail here.
func (s *PredictSpec) build(cluster maya.Cluster) (maya.Workload, []maya.PredictOption, error) {
	if err := s.normalize(); err != nil {
		return nil, nil, err
	}
	if s.Cluster != "" && s.Cluster != cluster.Name {
		return nil, nil, fmt.Errorf("spec targets cluster %q but this server models %q", s.Cluster, cluster.Name)
	}
	mdl, err := models.ByName(s.Model)
	if err != nil {
		return nil, nil, err
	}
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: mdl, NGPUs: cluster.TotalGPUs(), GlobalBatch: s.GlobalBatch,
		TP: s.TP, PP: s.PP, MicroBatches: s.MicroBatches, VirtualStages: s.VirtualStages,
		SeqParallel: s.SeqParallel, ActRecompute: s.ActRecompute, DistOptimizer: s.DistOptimizer,
	})
	if err != nil {
		return nil, nil, err
	}
	flops := s.FLOPs
	if flops == 0 {
		flops = mdl.TrainFLOPsPerIter(s.GlobalBatch)
	}
	opts := []maya.PredictOption{
		maya.WithModelFLOPs(flops),
		maya.WithDType(maya.DType(s.DType)),
	}
	switch s.Annotation {
	case annOracle:
		opts = append(opts, maya.WithOracleAnnotation())
	case annPhysical:
		opts = append(opts, maya.WithPhysicalReplay())
	case annNetsim:
		opts = append(opts, maya.WithNetSim())
	}
	if s.Seed != 0 {
		opts = append(opts, maya.WithSeed(s.Seed))
	}
	return w, opts, nil
}

// predictKey is the coalescing identity of the full prediction: the
// workload's canonical capture fingerprint plus every knob that can
// change the simulated result. Two requests with equal keys are
// interchangeable, so concurrent ones share one capture AND one
// simulate.
func (s *PredictSpec) predictKey(cluster maya.Cluster, w maya.Workload) string {
	fp := "nofp:" + s.Model // workloads are always Megatron here, but stay safe
	if f, ok := w.(workload.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	return fmt.Sprintf("%s|cluster=%s|ann=%s|dtype=%s|flops=%g|seed=%d",
		fp, cluster.Name, s.Annotation, s.DType, s.FLOPs, s.Seed)
}

// captureKey is the trace-store identity of the spec's capture:
// everything capture-relevant, nothing annotation-specific.
func (s *PredictSpec) captureKey(cluster maya.Cluster, w maya.Workload) string {
	fp := "nofp:" + s.Model
	if f, ok := w.(workload.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	return fmt.Sprintf("%s|cluster=%s|seed=%d", fp, cluster.Name, s.Seed)
}
