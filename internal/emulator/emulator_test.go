package emulator

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"maya/internal/cuda"
	"maya/internal/hardware"
	"maya/internal/trace"
)

func testEmulator() *Emulator {
	gpu := hardware.H100()
	gpu.MemBytes = 1 << 30 // 1 GiB for easy OOM tests
	return New(Config{Rank: 0, World: 1, GPU: gpu, Host: hardware.EpycHost()})
}

func TestMallocFreeAccounting(t *testing.T) {
	e := testEmulator()
	free0, total, err := e.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != 1<<30 || free0 != total {
		t.Fatalf("fresh device: free %d total %d", free0, total)
	}
	p, err := e.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	free1, _, _ := e.MemGetInfo()
	if free1 != free0-(1<<20) {
		t.Fatalf("free after malloc = %d, want %d", free1, free0-(1<<20))
	}
	if err := e.Free(p); err != nil {
		t.Fatal(err)
	}
	free2, _, _ := e.MemGetInfo()
	if free2 != free0 {
		t.Fatalf("free after free = %d, want %d", free2, free0)
	}
	tr := e.Trace()
	if tr.PeakBytes != 1<<20 {
		t.Fatalf("peak = %d, want %d", tr.PeakBytes, 1<<20)
	}
	// Allocation records no op; the calls' host time is the tail.
	if len(tr.Ops) != 0 || tr.TailGap <= 0 {
		t.Fatalf("%d ops, tail gap %v; want none and a positive tail", len(tr.Ops), tr.TailGap)
	}
}

func TestOOMDetection(t *testing.T) {
	e := testEmulator()
	if _, err := e.Malloc(1 << 29); err != nil {
		t.Fatal(err)
	}
	_, err := e.Malloc(1 << 30)
	if !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if !e.Trace().OOM {
		t.Fatal("trace not marked OOM")
	}
	// The device remains usable after an OOM (caching allocators
	// retry after freeing).
	if _, err := e.Malloc(1 << 20); err != nil {
		t.Fatalf("post-OOM malloc failed: %v", err)
	}
}

func TestDoubleFreeAndInvalidPointer(t *testing.T) {
	e := testEmulator()
	p, _ := e.Malloc(4096)
	if err := e.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := e.Free(p); !errors.Is(err, cuda.ErrInvalidDevicePtr) {
		t.Fatalf("double free err = %v", err)
	}
	if err := e.Free(cuda.DevicePtr(0xDEAD)); !errors.Is(err, cuda.ErrInvalidDevicePtr) {
		t.Fatalf("bogus free err = %v", err)
	}
}

func TestStreamHandleValidity(t *testing.T) {
	e := testEmulator()
	s, err := e.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LaunchKernel(cuda.KernelDesc{Name: "k"}, s); err != nil {
		t.Fatal(err)
	}
	if err := e.LaunchKernel(cuda.KernelDesc{Name: "k"}, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []cuda.Stream{s + 1, -1} {
		if err := e.LaunchKernel(cuda.KernelDesc{Name: "k"}, bad); !errors.Is(err, cuda.ErrInvalidHandle) {
			t.Fatalf("launch on never-created stream %d: %v", bad, err)
		}
	}
}

func TestEventVersioning(t *testing.T) {
	e := testEmulator()
	ev, err := e.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	// Wait before any record observes version 0 (no-op per CUDA).
	if err := e.StreamWaitEvent(cuda.DefaultStream, ev); err != nil {
		t.Fatal(err)
	}
	if err := e.EventRecord(ev, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	if err := e.StreamWaitEvent(cuda.DefaultStream, ev); err != nil {
		t.Fatal(err)
	}
	if err := e.EventRecord(ev, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	var vers []int
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.KindStreamWait, trace.KindEventRecord:
			vers = append(vers, op.EventVer)
		}
	}
	want := []int{0, 1, 1, 2}
	if len(vers) != len(want) {
		t.Fatalf("versions = %v", vers)
	}
	for i := range want {
		if vers[i] != want[i] {
			t.Fatalf("versions = %v, want %v", vers, want)
		}
	}
}

func TestMemcpyValidation(t *testing.T) {
	e := testEmulator()
	p, _ := e.Malloc(4096)
	if err := e.MemcpyAsync(p, 0, 4096, cuda.MemcpyHostToDevice, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	// Overflowing the allocation is an invalid access.
	if err := e.MemcpyAsync(p, 0, 8192, cuda.MemcpyHostToDevice, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidDevicePtr) {
		t.Fatalf("overflow copy err = %v", err)
	}
	// DtoH from a bogus pointer.
	if err := e.MemcpyAsync(0, cuda.DevicePtr(0x1234), 16, cuda.MemcpyDeviceToHost, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidDevicePtr) {
		t.Fatalf("bogus src err = %v", err)
	}
}

func TestKernelMetadataCaptured(t *testing.T) {
	e := testEmulator()
	desc := cuda.KernelDesc{
		Name: "cublasGemmEx", Dims: []int{1, 64, 64, 64},
		FLOPs: 2 * 64 * 64 * 64, Bytes: 3 * 2 * 64 * 64, DType: "bf16",
		Extra: map[string]float64{"triton_instrs": 4},
	}
	if err := e.LaunchKernel(desc, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	var k *trace.Op
	for i := range tr.Ops {
		if tr.Ops[i].Kind == trace.KindKernel {
			k = &tr.Ops[i]
		}
	}
	if k == nil {
		t.Fatal("no kernel recorded")
	}
	s := k.Shape
	if k.Name != desc.Name || k.Bytes != desc.Bytes || s.Name != desc.Name || s.Bytes != desc.Bytes ||
		s.FLOPs != desc.FLOPs || s.DType != "bf16" || !reflect.DeepEqual(s.Dims, desc.Dims) {
		t.Fatalf("metadata lost: %+v, shape %+v", k, s)
	}
	if s.Extra["triton_instrs"] != 4 {
		t.Fatalf("extra lost: %+v", s.Extra)
	}
}

// TestKernelShapeCapturedAtLaunch reuses one descriptor, mutating its
// Dims and Extra between launches, as a workload building descriptors
// in a loop would: each recorded kernel keeps the values it was
// launched with, before and after the trace is sealed.
func TestKernelShapeCapturedAtLaunch(t *testing.T) {
	e := testEmulator()
	desc := cuda.KernelDesc{Name: "triton", Dims: []int{1024}, DType: "fp16",
		Extra: map[string]float64{"triton_instrs": 4, "triton_loads": 1}}
	if err := e.LaunchKernel(desc, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	desc.Dims[0], desc.Extra["triton_instrs"] = 2048, 9
	if err := e.LaunchKernel(desc, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	desc.Dims[0], desc.Extra["triton_instrs"] = -1, -1
	var got []*trace.Shape
	for _, op := range e.Trace().Ops {
		if op.Kind == trace.KindKernel {
			got = append(got, op.Shape)
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d kernels recorded, want 2", len(got))
	}
	for i, want := range []struct {
		dim    int
		instrs float64
	}{{1024, 4}, {2048, 9}} {
		if got[i].Dims[0] != want.dim || got[i].Extra["triton_instrs"] != want.instrs || got[i].Extra["triton_loads"] != 1 {
			t.Errorf("kernel %d recorded dims %v extra %v, want dim %d, triton_instrs %v", i, got[i].Dims, got[i].Extra, want.dim, want.instrs)
		}
	}
	if got[0] == got[1] {
		t.Error("two different shapes share one Shape")
	}
}

func TestInvalidKernelRejected(t *testing.T) {
	e := testEmulator()
	if err := e.LaunchKernel(cuda.KernelDesc{}, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("empty kernel err = %v", err)
	}
	if err := e.LaunchKernel(cuda.KernelDesc{Name: "k", FLOPs: -1}, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("negative flops err = %v", err)
	}
}

func TestHostDelaysRecorded(t *testing.T) {
	e := testEmulator()
	for i := 0; i < 10; i++ {
		if err := e.LaunchKernel(cuda.KernelDesc{Name: "k"}, cuda.DefaultStream); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Trace().Stats()
	if st.HostTime == 0 {
		t.Fatal("no host time recorded")
	}
	// Kernel launches carry dispatch + prep overhead: mean per launch
	// should be near the host model's sum.
	perLaunch := st.HostTime / 10
	want := hardware.EpycHost().DispatchOverhead + hardware.EpycHost().KernelPrepOverhead
	lo := time.Duration(float64(want) * 0.7)
	hi := time.Duration(float64(want) * 1.3)
	if perLaunch < lo || perLaunch > hi {
		t.Fatalf("per-launch host time %v outside [%v, %v]", perLaunch, lo, hi)
	}
}

func TestHostDelayDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) time.Duration {
		e := New(Config{Rank: 3, World: 8, GPU: hardware.H100(), Host: hardware.EpycHost(), Seed: seed})
		for i := 0; i < 50; i++ {
			if err := e.LaunchKernel(cuda.KernelDesc{Name: "k"}, cuda.DefaultStream); err != nil {
				t.Fatal(err)
			}
		}
		return e.Trace().Stats().HostTime
	}
	if run(1) != run(1) {
		t.Fatal("host delays not deterministic for equal seeds")
	}
	if run(1) == run(2) {
		t.Fatal("host delays identical across seeds")
	}
}

func TestCollectiveValidation(t *testing.T) {
	e := testEmulator()
	bad := cuda.CollectiveDesc{Op: "ncclAllReduce", NRanks: 4, Rank: 4}
	if err := e.LaunchCollective(bad, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("rank out of range err = %v", err)
	}
}

func TestAllocatorNeverExceedsCapacity(t *testing.T) {
	// Property: under arbitrary alloc/free sequences, used never
	// exceeds capacity and peak is an upper bound of used.
	if err := quick.Check(func(sizes []uint16) bool {
		gpu := hardware.H100()
		gpu.MemBytes = 1 << 20
		e := New(Config{GPU: gpu, Host: hardware.Host{}})
		var live []cuda.DevicePtr
		for i, s := range sizes {
			n := int64(s) + 1
			if i%3 == 2 && len(live) > 0 {
				if err := e.Free(live[0]); err != nil {
					return false
				}
				live = live[1:]
				continue
			}
			p, err := e.Malloc(n)
			if err != nil {
				continue // OOM is fine; invariants still must hold
			}
			live = append(live, p)
			free, total, _ := e.MemGetInfo()
			if free < 0 || free > total {
				return false
			}
		}
		tr := e.Trace()
		free, total, _ := e.MemGetInfo()
		used := total - free
		return tr.PeakBytes >= used && tr.PeakBytes <= total
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
