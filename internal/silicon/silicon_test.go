package silicon

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"maya/internal/hardware"
	"maya/internal/trace"
)

func gemmOp(m, n, k int, dtype string) *trace.Op {
	op := trace.OpOf(trace.KindKernel, &trace.Shape{
		Name:  "cublasGemmEx",
		Dims:  []int{1, m, n, k},
		FLOPs: 2 * int64(m) * int64(n) * int64(k),
		Bytes: 2 * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)),
		DType: dtype,
	})
	return &op
}

func TestKernelTimeDeterministic(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	op := gemmOp(1024, 1024, 1024, "bf16")
	if o.KernelTime(op) != o.KernelTime(op) {
		t.Fatal("oracle not deterministic")
	}
}

func TestKernelTimeScalesWithWork(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	small := o.KernelTime(gemmOp(512, 512, 512, "bf16"))
	big := o.KernelTime(gemmOp(4096, 4096, 4096, "bf16"))
	// 512x more FLOPs; the small GEMM is floored by launch overhead,
	// so expect a large but sub-512x ratio.
	if big < 40*small {
		t.Fatalf("big gemm %v not ≫ small %v", big, small)
	}
	// The large GEMM must sit near its roofline: 2*4096^3 flops at
	// ~70% of 989 TFLOPS is ~200us; accept a 2x band for quirks.
	if big < 100*time.Microsecond || big > 400*time.Microsecond {
		t.Fatalf("4096^3 bf16 gemm = %v, outside plausible H100 band", big)
	}
}

func TestArchitecturesDiffer(t *testing.T) {
	h100 := NewOracle(hardware.DGXH100(1), DefaultSeed)
	v100 := NewOracle(hardware.DGXV100(1), DefaultSeed)
	op := gemmOp(4096, 4096, 4096, "bf16")
	th, tv := h100.KernelTime(op), v100.KernelTime(op)
	// H100 bf16 is ~35x V100's emulated bf16 peak; allow a wide band.
	if float64(tv)/float64(th) < 10 {
		t.Fatalf("V100 %v vs H100 %v: ratio %0.1f too small", tv, th, float64(tv)/float64(th))
	}
	// fp16 runs on V100 tensor cores: much faster than V100 bf16.
	tvFP16 := v100.KernelTime(gemmOp(4096, 4096, 4096, "fp16"))
	if float64(tv)/float64(tvFP16) < 2 {
		t.Fatalf("V100 bf16 %v should be ≫ fp16 %v", tv, tvFP16)
	}
}

func TestShortKernelsFloored(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	op := trace.OpOf(trace.KindKernel, &trace.Shape{Name: "elementwise_kernel", Bytes: 64, DType: "bf16"})
	if d := o.KernelTime(&op); d < 500*time.Nanosecond {
		t.Fatalf("kernel %v below launch floor", d)
	}
}

func TestCollectiveScaling(t *testing.T) {
	o := NewOracle(hardware.DGXH100(8), DefaultSeed)
	intra := []int{0, 1, 2, 3, 4, 5, 6, 7}
	inter := []int{0, 8, 16, 24}
	small := o.CollectiveTime("ncclAllReduce", 1<<20, intra)
	big := o.CollectiveTime("ncclAllReduce", 1<<30, intra)
	if big < 100*small {
		t.Fatalf("1GiB allreduce %v not ≫ 1MiB %v", big, small)
	}
	intraT := o.CollectiveTime("ncclAllReduce", 1<<28, intra)
	interT := o.CollectiveTime("ncclAllReduce", 1<<28, inter)
	if interT < 3*intraT {
		t.Fatalf("inter-node %v should be ≫ NVSwitch %v", interT, intraT)
	}
}

func TestPairwiseNVLinkTopology(t *testing.T) {
	o := NewOracle(hardware.A40Node(), DefaultSeed)
	paired := o.CollectiveTime("ncclAllReduce", 1<<26, []int{0, 1})
	unpaired := o.CollectiveTime("ncclAllReduce", 1<<26, []int{0, 2})
	if unpaired < 2*paired {
		t.Fatalf("cross-pair allreduce %v should be ≫ NVLink pair %v", unpaired, paired)
	}
}

func TestSingleRankCollectiveTrivial(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	if d := o.CollectiveTime("ncclAllReduce", 1<<30, []int{3}); d > 100*time.Microsecond {
		t.Fatalf("1-rank collective = %v", d)
	}
}

func TestMeasurementNoiseSmallAndSeeded(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	op := gemmOp(2048, 2048, 2048, "bf16")
	truth := o.KernelTime(op)
	var worst float64
	for i := int64(0); i < 100; i++ {
		m := o.Measure(op, nil, i)
		rel := math.Abs(float64(m-truth)) / float64(truth)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.10 {
		t.Fatalf("measurement noise %0.1f%% too large", worst*100)
	}
	if o.Measure(op, nil, 1) == o.Measure(op, nil, 2) {
		t.Fatal("sample ids should vary measurements")
	}
	if o.Measure(op, nil, 1) != o.Measure(op, nil, 1) {
		t.Fatal("same sample id must reproduce")
	}
}

func TestMemcpyTimes(t *testing.T) {
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	h2d := trace.OpOf(trace.KindMemcpy, &trace.Shape{Name: "MemcpyHtoD", MemKind: "HtoD", Bytes: 1 << 30})
	d2d := trace.OpOf(trace.KindMemcpy, &trace.Shape{Name: "MemcpyDtoD", MemKind: "DtoD", Bytes: 1 << 30})
	if h2d, d2d := o.KernelTime(&h2d), o.KernelTime(&d2d); h2d < 5*d2d {
		t.Fatalf("PCIe copy %v should be ≫ HBM copy %v", h2d, d2d)
	}
}

func TestAnnotateFillsDeviceWork(t *testing.T) {
	w := &trace.Worker{Rank: 0, World: 2}
	w.Append(*gemmOp(256, 256, 256, "bf16"))
	w.Append(trace.Op{Kind: trace.KindMark, Name: "m"})
	w.Append(trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
		Op: "ncclAllReduce", CommID: 5, Seq: 0, NRanks: 2, Rank: 0, Peer: -1, Bytes: 1 << 20}})
	job, err := trace.NewJob([]*trace.Worker{w})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	ann := trace.NewAnnotations(job)
	if err := o.AnnotateInto(context.Background(), job, map[uint64][]int{5: {0, 1}}, map[uint64]int{5: 2}, ann); err != nil {
		t.Fatal(err)
	}
	if ann.Dur(0, 0) == 0 {
		t.Fatal("kernel not annotated")
	}
	if ann.Dur(0, 1) != 0 {
		t.Fatal("a mark must take no device time")
	}
	if ann.Dur(0, 2) == 0 {
		t.Fatal("collective not annotated")
	}
}

// rankRecorder is a trace.Timer that keeps the rank lists it is handed.
type rankRecorder struct{ seen [][]int }

func (r *rankRecorder) EstimateKernel(*trace.Op) time.Duration { return 0 }
func (r *rankRecorder) EstimateCollective(_ string, _ int64, ranks []int, _ int) time.Duration {
	r.seen = append(r.seen, ranks)
	return time.Millisecond
}

func TestAnnotateExpandsPartialMembership(t *testing.T) {
	// Only one member of a declared 4-rank comm is present (dedup), and
	// a second comm has no recorded membership at all (a loaded trace
	// need not carry any): both collectives must still be timed as
	// 4-rank groups, not trivial singletons — by every timer, since all
	// are handed the walk's one answer.
	w := &trace.Worker{Rank: 0, World: 16}
	for _, comm := range []uint64{5, 6} {
		w.Append(trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
			Op: "ncclAllReduce", CommID: comm, Seq: 0, NRanks: 4, Rank: 0, Peer: -1, Bytes: 1 << 26}})
	}
	job, _ := trace.NewJob([]*trace.Worker{w})
	comms, sizes := map[uint64][]int{5: {0}}, map[uint64]int{5: 4}
	group := []int{0, 4, 8, 12}

	o := NewOracle(hardware.DGXV100(2), DefaultSeed)
	ann := trace.NewAnnotations(job)
	if err := o.AnnotateInto(context.Background(), job, comms, sizes, ann); err != nil {
		t.Fatal(err)
	}
	want := o.CollectiveTime("ncclAllReduce", 1<<26, group)
	for i := range w.Ops {
		got := ann.Dur(0, i)
		if got != want {
			t.Fatalf("collective %d: partial membership time %v, want expanded-group %v", i, got, want)
		}
		if got < 10*time.Microsecond*2 {
			t.Fatal("collective degenerated to singleton timing")
		}
	}

	// Any other timer — the learned suite — is handed the same lists.
	rec := &rankRecorder{}
	if err := trace.Annotate(context.Background(), job, comms, sizes, rec, ann); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.seen, [][]int{group, group}) {
		t.Fatalf("the walk handed a timer rank lists %v, want %v twice", rec.seen, group)
	}
}

func TestQuirkBounded(t *testing.T) {
	// Property: ground truth never deviates unboundedly from the
	// roofline — quirks stay within a sane envelope.
	o := NewOracle(hardware.DGXH100(1), DefaultSeed)
	if err := quick.Check(func(mRaw, nRaw, kRaw uint16) bool {
		m := int(mRaw%4096) + 64
		n := int(nRaw%4096) + 64
		k := int(kRaw%4096) + 64
		op := gemmOp(m, n, k, "bf16")
		d := o.KernelTime(op)
		gpu := hardware.H100()
		ideal := float64(op.Shape.FLOPs) / (gpu.PeakTFLOPS(hardware.BF16) * 1e12)
		// Never faster than ideal peak, never 100x slower.
		return d.Seconds() >= ideal*0.9 && d.Seconds() < ideal*100+1e-3
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
