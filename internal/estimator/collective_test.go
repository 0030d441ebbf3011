package estimator

import (
	"math"
	"testing"
	"time"

	"maya/internal/hardware"
	"maya/internal/trace"
)

// fitCurve builds a collective model from synthetic linear-in-bytes
// samples.
func fitCurve(t *testing.T, cluster hardware.Cluster, nranks int, ranks []int) *CollectiveModel {
	t.Helper()
	var samples []ProfileSample
	for exp := 20; exp <= 30; exp++ {
		bytes := int64(1) << uint(exp)
		// time = 1us + bytes / 100GB/s
		dur := time.Duration(1000 + bytes/100)
		samples = append(samples, ProfileSample{
			Op: trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
				Op: "ncclAllReduce", CommID: 1, NRanks: nranks, Rank: 0, Peer: -1, Bytes: bytes,
			}},
			Ranks: ranks,
			Dur:   dur,
		})
	}
	return trainCollectiveModel(cluster, samples)
}

func TestCurveInterpolationExactAtKnots(t *testing.T) {
	cluster := hardware.DGXH100(1)
	ranks := []int{0, 1, 2, 3}
	m := fitCurve(t, cluster, 4, ranks)
	got := m.Estimate("ncclAllReduce", 1<<24, ranks, 4)
	want := time.Duration(1000 + (1<<24)/100)
	if rel := float64(got-want) / float64(want); rel > 0.01 || rel < -0.01 {
		t.Fatalf("knot estimate %v, want %v", got, want)
	}
}

func TestTinyCollectiveDoesNotExplode(t *testing.T) {
	// Regression test: extrapolating the log-log curve far below the
	// profiled range must clamp to the latency floor rather than
	// blow up (a 4-byte grad-norm all-reduce once predicted ~1000h).
	cluster := hardware.DGXH100(1)
	ranks := []int{0, 1, 2, 3}
	m := fitCurve(t, cluster, 4, ranks)
	got := m.Estimate("ncclAllReduce", 4, ranks, 4)
	smallest := m.Estimate("ncclAllReduce", 1<<20, ranks, 4)
	if got > smallest*2 {
		t.Fatalf("4-byte collective %v exceeds smallest profiled %v", got, smallest)
	}
}

func TestLargeExtrapolationBandwidthBound(t *testing.T) {
	cluster := hardware.DGXH100(1)
	ranks := []int{0, 1, 2, 3}
	m := fitCurve(t, cluster, 4, ranks)
	at32g := m.Estimate("ncclAllReduce", 1<<35, ranks, 4)
	at1g := m.Estimate("ncclAllReduce", 1<<30, ranks, 4)
	ratio := float64(at32g) / float64(at1g)
	if ratio < 8 || ratio > 128 {
		t.Fatalf("32x size scaled time by %.1fx, want ~32x", ratio)
	}
}

func TestNearestGroupSizeRescaling(t *testing.T) {
	cluster := hardware.DGXH100(1)
	ranks4 := []int{0, 1, 2, 3}
	m := fitCurve(t, cluster, 4, ranks4)
	// No 8-rank curve exists: the 4-rank one is rescaled by the
	// analytic volume factor 2*(n-1)/n.
	ranks8 := []int{0, 1, 2, 3, 4, 5, 6, 7}
	t4 := m.Estimate("ncclAllReduce", 1<<26, ranks4, 4)
	t8 := m.Estimate("ncclAllReduce", 1<<26, ranks8, 8)
	wantRatio := (2.0 * 7 / 8) / (2.0 * 3 / 4)
	ratio := float64(t8) / float64(t4)
	if ratio < wantRatio*0.9 || ratio > wantRatio*1.1 {
		t.Fatalf("8-rank rescale ratio %.3f, want ~%.3f", ratio, wantRatio)
	}
}

func TestOppositeScopeRescaledByBandwidthRatio(t *testing.T) {
	// Only an intra-node 4-rank curve is profiled, so a 2-rank call
	// across nodes prices off it: rescaled by the volume factor and by
	// how much slower the inter-node link is than NVLink.
	cluster := hardware.DGXH100(2)
	m := fitCurve(t, cluster, 4, []int{0, 1, 2, 3})
	const bytes = 1 << 26
	node := cluster.Node
	ratio := node.GPU.NVLinkGBps / node.Inter.PerGPUGBps
	if ratio <= 1 {
		t.Fatalf("NVLink %v GB/s is not faster than the inter-node link %v GB/s", node.GPU.NVLinkGBps, node.Inter.PerGPUGBps)
	}
	rescale := algFactor("ncclAllReduce", 2) / algFactor("ncclAllReduce", 4)
	want := float64(1000+bytes/100) * ratio * rescale
	inter := m.Estimate("ncclAllReduce", bytes, []int{0, 8}, 2)
	if math.Abs(float64(inter)-want) > 1 { // the estimate truncates to whole ns
		t.Fatalf("inter-node estimate %v, want %v", inter, time.Duration(want))
	}
	if intra := m.Estimate("ncclAllReduce", bytes, []int{0, 1}, 2); inter <= intra {
		t.Fatalf("inter-node estimate %v is not slower than the intra-node %v", inter, intra)
	}
}

func TestEmptyModelFallsBackToAnalytical(t *testing.T) {
	m := trainCollectiveModel(hardware.DGXH100(2), nil)
	d := m.Estimate("ncclAllReduce", 1<<28, []int{0, 8}, 2)
	if d <= 0 || d > time.Minute {
		t.Fatalf("analytical fallback = %v", d)
	}
}

func TestKernelFeatureLength(t *testing.T) {
	op := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "k", Dims: []int{1, 2, 3}, DType: "bf16"})
	if got := len(KernelFeatures(&op)); got != featureLen {
		t.Fatalf("feature length %d != %d", got, featureLen)
	}
	// bf16 and fp16 must be distinguishable (same width, different
	// tensor-core paths on Volta).
	a := KernelFeatures(&trace.Op{Kind: trace.KindKernel, Name: "k", Shape: &trace.Shape{Name: "k", DType: "bf16"}})
	b := KernelFeatures(&trace.Op{Kind: trace.KindKernel, Name: "k", Shape: &trace.Shape{Name: "k", DType: "fp16"}})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("bf16 and fp16 feature vectors identical")
	}
}
