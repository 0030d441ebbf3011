// Package estimator predicts per-operation runtimes for annotated
// traces: Maya's pluggable kernel-runtime estimation phase. The
// default implementation mirrors the paper — random-forest regressors
// per kernel type trained on profiled microbenchmarks, plus
// interpolated bandwidth curves for the small set of collective
// operations — with an analytical roofline fallback for kernels that
// were never profiled.
package estimator

import (
	"fmt"
	"math"
	"time"

	"maya/internal/forest"
	"maya/internal/hardware"
	"maya/internal/trace"
)

// featureLen is the fixed kernel feature dimensionality.
const featureLen = 14

// KernelFeatures maps a traced op's shape to the regressor's feature
// vector: log-scaled work volumes, up to eight semantic dimensions,
// element type and compiler-IR features for fused kernels.
func KernelFeatures(op *trace.Op) []float64 {
	return AppendKernelFeatures(make([]float64, 0, featureLen), op)
}

// AppendKernelFeatures appends op's feature vector to dst and returns
// the extended slice — the allocation-free path for hot loops, which
// pass a stack-backed dst (see EstimateKernel). The layout is
// identical to KernelFeatures.
func AppendKernelFeatures(dst []float64, op *trace.Op) []float64 {
	s := op.ShapeOrZero()
	dst = append(dst,
		math.Log2(1+float64(s.FLOPs)),
		math.Log2(1+float64(s.Bytes)))
	for i := 0; i < 8; i++ {
		if i < len(s.Dims) {
			dst = append(dst, math.Log2(1+float64(s.Dims[i])))
		} else {
			dst = append(dst, 0)
		}
	}
	dst = append(dst, float64(hardware.DType(s.DType).Size()))
	if s.Extra != nil {
		dst = append(dst, s.Extra["triton_instrs"], s.Extra["triton_loads"])
	} else {
		dst = append(dst, 0, 0)
	}
	// The element type identity matters beyond its width: bf16 and
	// fp16 share a size but can differ 4x in tensor-core throughput
	// on pre-Ampere parts.
	return append(dst, dtypeCode(s.DType))
}

func dtypeCode(dt string) float64 {
	switch dt {
	case "fp32":
		return 1
	case "fp16":
		return 2
	case "bf16":
		return 3
	case "fp8":
		return 4
	default:
		return 0
	}
}

// CollectiveEstimator predicts one collective's on-the-wire time.
// The profiled CollectiveModel is the default; network simulators
// (internal/netsim, standing in for ASTRA-sim) plug in through the
// same interface, as the paper's §4.3 describes.
type CollectiveEstimator interface {
	EstimateCollective(op string, bytes int64, ranks []int, nranks int) time.Duration
}

// Suite bundles the trained estimators for one cluster.
type Suite struct {
	cluster hardware.Cluster
	kernels map[string]*forest.Forest
	coll    *CollectiveModel
	collAlt CollectiveEstimator // optional override
}

// WithCollectiveEstimator returns a copy of the suite whose
// collective predictions come from ce (nil restores the profiled
// model). The kernel forests are shared.
func (s *Suite) WithCollectiveEstimator(ce CollectiveEstimator) *Suite {
	c := *s
	c.collAlt = ce
	return &c
}

// EstimateKernel predicts the duration of a compute/memory op from its
// shape, falling back to an analytical roofline for unprofiled
// kernels. It performs no heap allocation in steady state: the feature
// vector lives in a stack buffer and the flattened forest walk
// allocates nothing.
func (s *Suite) EstimateKernel(op *trace.Op) time.Duration {
	if f, ok := s.kernels[op.ShapeOrZero().Name]; ok {
		var buf [featureLen]float64
		logNs := f.Predict(AppendKernelFeatures(buf[:0], op))
		return time.Duration(math.Exp(logNs))
	}
	return s.analyticalKernel(op)
}

// analyticalKernel is the coarse roofline used when no forest exists.
func (s *Suite) analyticalKernel(op *trace.Op) time.Duration {
	sh := op.ShapeOrZero()
	gpu := s.cluster.Node.GPU
	peak := gpu.PeakTFLOPS(hardware.DType(sh.DType)) * 1e12
	bw := gpu.MemBWGBps * 1e9
	var tc, tm float64
	if sh.FLOPs > 0 && peak > 0 {
		tc = float64(sh.FLOPs) / (peak * 0.5)
	}
	if sh.Bytes > 0 {
		tm = float64(sh.Bytes) / (bw * 0.6)
	}
	ns := math.Max(tc, tm)*1e9 + 3000
	return time.Duration(ns)
}

// EstimateCollective predicts the on-the-wire time of a collective
// among the given global ranks (nranks is the declared group size,
// used when membership is partial).
func (s *Suite) EstimateCollective(opName string, bytes int64, ranks []int, nranks int) time.Duration {
	if s.collAlt != nil {
		return s.collAlt.EstimateCollective(opName, bytes, ranks, nranks)
	}
	return s.coll.Estimate(opName, bytes, ranks, nranks)
}

// MAPEByKernel evaluates the suite's per-kernel-name mean absolute
// percentage error over held-out profile samples.
func (s *Suite) MAPEByKernel(test []ProfileSample) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for i := range test {
		ps := &test[i]
		if ps.Op.Kind == trace.KindCollective {
			continue
		}
		want := float64(ps.Dur)
		if want <= 0 {
			continue
		}
		got := float64(s.EstimateKernel(&ps.Op))
		name := ps.Op.Name
		sums[name] += math.Abs(got-want) / want
		counts[name]++
	}
	out := make(map[string]float64, len(sums))
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}

// String summarizes the suite.
func (s *Suite) String() string {
	return fmt.Sprintf("estimator.Suite{%s: %d kernel forests}", s.cluster.Name, len(s.kernels))
}
