package estimator

import (
	"testing"
	"time"

	"maya/internal/hardware"
	"maya/internal/silicon"
	"maya/internal/trace"
)

func trainedSuite(t *testing.T, cluster hardware.Cluster, kind ProfileKind) (*Suite, map[string]float64) {
	t.Helper()
	oracle := silicon.NewOracle(cluster, 7)
	profile := SyntheticProfile(oracle, cluster, kind, 11)
	s, mape, err := TrainAndEvaluate(profile, cluster)
	if err != nil {
		t.Fatalf("TrainAndEvaluate: %v", err)
	}
	return s, mape
}

func TestGemmEstimatorAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	cluster := hardware.DGXH100(4)
	_, mape := trainedSuite(t, cluster, ProfileLLM)
	for _, name := range []string{"cublasGemmEx", "cublasSgemmStridedBatched"} {
		got, ok := mape[name]
		if !ok {
			t.Fatalf("no MAPE for %s; have %v", name, mape)
		}
		if got > 0.10 {
			t.Errorf("%s MAPE = %.1f%%, want < 10%% (heavy-hitter kernels must predict well)", name, got*100)
		}
	}
}

func TestEstimatorTracksShapeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	cluster := hardware.DGXH100(1)
	s, _ := trainedSuite(t, cluster, ProfileLLM)
	small := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "cublasGemmEx",
		Dims: []int{1, 512, 512, 512}, FLOPs: 2 * 512 * 512 * 512,
		Bytes: 2 * 3 * 512 * 512, DType: "bf16"})
	big := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "cublasGemmEx",
		Dims: []int{1, 8192, 8192, 8192}, FLOPs: 2 * 8192 * 8192 * 8192,
		Bytes: 2 * 3 * 8192 * 8192, DType: "bf16"})
	ts, tb := s.EstimateKernel(&small), s.EstimateKernel(&big)
	if tb < 100*ts {
		t.Errorf("big gemm %v not ≫ small gemm %v (4096x flops)", tb, ts)
	}
}

func TestCollectiveModelScalesWithSizeAndScope(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	cluster := hardware.DGXH100(8)
	s, _ := trainedSuite(t, cluster, ProfileLLM)
	intra := []int{0, 1, 2, 3, 4, 5, 6, 7}
	inter := []int{0, 8, 16, 24, 32, 40, 48, 56}
	small := s.EstimateCollective("ncclAllReduce", 1<<22, intra, 8)
	large := s.EstimateCollective("ncclAllReduce", 1<<28, intra, 8)
	if large < 10*small {
		t.Errorf("allreduce 256MB (%v) not ≫ 4MB (%v)", large, small)
	}
	intraT := s.EstimateCollective("ncclAllReduce", 1<<28, intra, 8)
	interT := s.EstimateCollective("ncclAllReduce", 1<<28, inter, 8)
	if interT < 2*intraT {
		t.Errorf("inter-node allreduce (%v) should be much slower than NVSwitch (%v)", interT, intraT)
	}
}

func TestCollectiveEstimateVsTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	cluster := hardware.DGXV100(2)
	oracle := silicon.NewOracle(cluster, 7)
	s, _ := trainedSuite(t, cluster, ProfileLLM)
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, bytes := range []int64{1 << 24, 1 << 26, 1 << 28} {
		want := oracle.CollectiveTime("ncclAllReduce", bytes, ranks)
		got := s.EstimateCollective("ncclAllReduce", bytes, ranks, 8)
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.15 {
			t.Errorf("allreduce %d bytes: est %v vs truth %v (%.0f%% off)", bytes, got, want, rel*100)
		}
	}
}

func TestExpandRanks(t *testing.T) {
	cases := []struct {
		known []int
		size  int
		world int
		want  []int
	}{
		{[]int{0, 1, 2, 3}, 4, 8, []int{0, 1, 2, 3}},
		{[]int{0, 8}, 4, 32, []int{0, 8, 16, 24}},
		{[]int{0}, 4, 32, []int{0, 8, 16, 24}},
		{[]int{2}, 2, 4, []int{2, 0}},
	}
	for i, c := range cases {
		got := trace.ExpandRanks(c.known, c.size, c.world)
		if len(got) != len(c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: got %v want %v", i, got, c.want)
				break
			}
		}
	}
}

func TestUnprofiledKernelFallsBackToAnalytical(t *testing.T) {
	s, err := TrainSuite(nil, hardware.DGXH100(1))
	if err != nil {
		t.Fatalf("TrainSuite(empty): %v", err)
	}
	op := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "never_profiled", FLOPs: 1 << 30, Bytes: 1 << 20, DType: "bf16"})
	if d := s.EstimateKernel(&op); d <= 0 {
		t.Fatalf("fallback estimate = %v, want > 0", d)
	}
	if d := s.EstimateKernel(&op); d > time.Second {
		t.Fatalf("fallback estimate = %v, implausibly large", d)
	}
}
