package emulator

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"maya/internal/cuda"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
)

// rankCase is one rank of one recipe: what a capture emulates.
type rankCase struct {
	name string
	w    *framework.Megatron
	rank int
	gpu  hardware.GPU
	oom  bool
}

func megatronCase(t *testing.T, name string, m models.Transformer, gpu hardware.GPU, ngpus, batch, tp, pp, mb, rank int, oom bool) rankCase {
	t.Helper()
	w, err := framework.NewMegatron(framework.MegatronConfig{
		Model: m, NGPUs: ngpus, GlobalBatch: batch, TP: tp, PP: pp, MicroBatches: mb, ActRecompute: !oom,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rankCase{name: name, w: w, rank: rank, gpu: gpu, oom: oom}
}

// recordingCases are a long rank, a short one and one that aborts on
// out-of-memory part-way through its setup.
func recordingCases(t *testing.T) []rankCase {
	return []rankCase{
		megatronCase(t, "long", models.GPT3_18_4B(), hardware.H100(), 64, 128, 8, 4, 16, 0, false),
		megatronCase(t, "short", models.GPT3_2_7B(), hardware.V100(), 8, 64, 2, 4, 8, 6, false),
		megatronCase(t, "oom", models.GPT3_18_4B(), hardware.H100(), 64, 128, 1, 1, 2, 0, true),
	}
}

// emulate runs the case and seals it, reporting the scratch it
// recorded into and whether that scratch had been used before.
func (c rankCase) emulate(t testing.TB) (w *trace.Worker, r *recording, recycled bool) {
	em := New(Config{Rank: c.rank, World: c.w.World(), GPU: c.gpu, Host: hardware.EpycHost(), Seed: 7})
	r, recycled = em.rec, cap(em.rec.ops) > 0
	err := c.w.Run(c.rank, em)
	if c.oom != errors.Is(err, cuda.ErrOutOfMemory) || (err != nil && !c.oom) {
		t.Errorf("%s: Run = %v, want oom %t", c.name, err, c.oom)
	}
	return em.Trace(), r, recycled
}

// reference emulates the case on an empty pool: nothing it records
// into has held another trace.
func (c rankCase) reference(t *testing.T) *trace.Worker {
	t.Helper()
	recordings = sync.Pool{New: recordings.New}
	w, _, recycled := c.emulate(t)
	if recycled {
		t.Fatalf("%s: reference ran on a recycled scratch", c.name)
	}
	if w.OOM != c.oom || len(w.Ops) == 0 {
		t.Fatalf("%s: reference has %d ops, oom %t", c.name, len(w.Ops), w.OOM)
	}
	return w
}

// checkSealed asserts the seal invariant on w and that it is the
// trace ref is.
func checkSealed(t testing.TB, name string, w, ref *trace.Worker) {
	t.Helper()
	if !reflect.DeepEqual(w, ref) {
		t.Errorf("%s: sealed trace differs from the never-recycled reference (%d vs %d ops)", name, len(w.Ops), len(ref.Ops))
	}
	if cap(w.Ops) != len(w.Ops) {
		t.Errorf("%s: cap(Ops) %d != len %d", name, cap(w.Ops), len(w.Ops))
	}
}

// checkPooled asserts a scratch that went back to the pool is empty
// and all-zero over its full capacity.
func checkPooled(t testing.TB, name string, r *recording) {
	t.Helper()
	if len(r.ops) != 0 || len(r.colls) != 0 {
		t.Errorf("%s: pooled scratch has lengths %d/%d", name, len(r.ops), len(r.colls))
	}
	for i, op := range r.ops[:cap(r.ops)] {
		if !reflect.ValueOf(op).IsZero() {
			t.Errorf("%s: pooled op buffer not zero at %d of %d: %+v", name, i, cap(r.ops), op)
			return
		}
	}
	for i, c := range r.colls[:cap(r.colls)] {
		if c != (trace.Collective{}) {
			t.Errorf("%s: pooled collective slab not zero at %d of %d: %+v", name, i, cap(r.colls), c)
			return
		}
	}
}

func TestRecordingScratchDoesNotLeakBetweenRanks(t *testing.T) {
	cases := recordingCases(t)
	refs := make([]*trace.Worker, len(cases))
	for i, c := range cases {
		refs[i] = c.reference(t)
	}
	if long, short := len(refs[0].Ops), len(refs[1].Ops); long < 2*short {
		t.Fatalf("long rank has %d ops, short %d: the cases no longer differ enough", long, short)
	}
	// Long, then short, then the aborted one, on one goroutine, until
	// a round ran entirely on recycled scratch (sync.Pool may drop a
	// Put, under -race on purpose).
	var kept, keptRef []*trace.Worker
	reused := false
	for round := 0; round < 100 && !reused; round++ {
		reused = true
		for i, c := range cases {
			w, r, recycled := c.emulate(t)
			checkSealed(t, c.name, w, refs[i])
			checkPooled(t, c.name, r)
			reused = reused && recycled
			kept, keptRef = append(kept, w), append(keptRef, refs[i])
		}
	}
	if !reused {
		t.Fatal("no round ran on recycled scratch")
	}
	// The scratch every kept trace was recorded into has since held
	// other ranks; a sealed trace shares nothing with it.
	for i, w := range kept {
		checkSealed(t, "kept", w, keptRef[i])
	}

	// Every device op of one shape points to one Shape: the long rank
	// holds exactly as many Shapes as it has distinct shapes.
	w := kept[0]
	pointers := map[*trace.Shape]bool{}
	distinct := map[string]bool{}
	kernels := 0
	for i := range w.Ops {
		op := &w.Ops[i]
		if op.Kind != trace.KindKernel && op.Kind != trace.KindMemcpy && op.Kind != trace.KindMemset {
			if op.Shape != nil {
				t.Fatalf("op %d (%v) has a shape", i, op.Kind)
			}
			continue
		}
		if op.Shape == nil || op.Shape.Name != op.Name || op.Shape.Bytes != op.Bytes {
			t.Fatalf("op %d: shape %+v does not describe %s of %d bytes", i, op.Shape, op.Name, op.Bytes)
		}
		kernels++
		pointers[op.Shape] = true
		distinct[fmt.Sprintf("%v|%+v", op.Kind, *op.Shape)] = true
	}
	if len(pointers) != len(distinct) || 20*len(pointers) > kernels {
		t.Fatalf("%d device ops point to %d shapes, of %d distinct", kernels, len(pointers), len(distinct))
	}
}

func TestRecordingScratchConcurrentCaptures(t *testing.T) {
	cases := recordingCases(t)
	refs := make([]*trace.Worker, len(cases))
	for i, c := range cases {
		refs[i] = c.reference(t)
	}
	const goroutines, captures = 8, 20
	kept := make([][]*trace.Worker, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < captures; n++ {
				i := (g + n) % len(cases)
				w, _, _ := cases[i].emulate(t)
				checkSealed(t, cases[i].name, w, refs[i])
				kept[g] = append(kept[g], w)
			}
		}()
	}
	wg.Wait()
	for g := range kept {
		for n, w := range kept[g] {
			checkSealed(t, "kept", w, refs[(g+n)%len(cases)])
		}
	}
}

func TestTraceIsIdempotentAndResumable(t *testing.T) {
	host := hardware.Host{DispatchOverhead: 5 * time.Microsecond, KernelPrepOverhead: 9 * time.Microsecond}
	e := New(Config{World: 1, GPU: hardware.H100(), Host: host})
	k := cuda.KernelDesc{Name: "gemm", Dims: []int{8, 16, 32}, FLOPs: 1, Bytes: 1, DType: "bf16"}
	if err := e.LaunchKernel(k, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	// A malloc records no op: its host time is pending past the last
	// op, the seal's TailGap.
	if _, err := e.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	first := e.Trace()
	if first.Ops[0].HostGap != 14*time.Microsecond || first.TailGap != 5*time.Microsecond {
		t.Fatalf("sealed gaps: op %v, tail %v; want 14µs and 5µs", first.Ops[0].HostGap, first.TailGap)
	}
	snapshot := first.Compact()
	if again := e.Trace(); again != first || !reflect.DeepEqual(again, snapshot) {
		t.Fatal("second Trace() is not the first's worker")
	}

	coll := cuda.CollectiveDesc{Op: "ncclAllReduce", CommID: 9, NRanks: 2, Peer: -1, Bytes: 64}
	if err := e.LaunchCollective(coll, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	r := e.rec
	next := e.Trace()
	checkPooled(t, "resumed", r)
	n := len(first.Ops)
	if len(next.Ops) != n+1 || cap(next.Ops) != len(next.Ops) {
		t.Fatalf("after a launch past the seal: %d ops (cap %d), want %d", len(next.Ops), cap(next.Ops), n+1)
	}
	if !reflect.DeepEqual(next.Ops[:n], snapshot.Ops) {
		t.Fatal("resumed trace lost or changed the sealed ops")
	}
	// The pending tail moved onto the op launched after the seal.
	if last := next.Ops[n]; last.Kind != trace.KindCollective || last.Coll.CommID != 9 ||
		last.HostGap != snapshot.TailGap+14*time.Microsecond || next.TailGap != 0 {
		t.Fatalf("last op = %+v, tail %v", last, next.TailGap)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("resuming changed the worker the first Trace() returned")
	}
	next.Ops[0].Stream = -1
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("the resumed seal shares storage with the first")
	}
}

// TestSealInPlace pins the copy-free seal: the worker Seal returns is
// the trace Trace would have copied out, its ops still in the scratch
// it was recorded into, and release leaves the worker without ops and
// the scratch pooled clear, for the next rank to record into.
func TestSealInPlace(t *testing.T) {
	for _, c := range recordingCases(t) {
		ref := c.reference(t)
		em := New(Config{Rank: c.rank, World: c.w.World(), GPU: c.gpu, Host: hardware.EpycHost(), Seed: 7})
		r := em.rec
		if err := c.w.Run(c.rank, em); c.oom != errors.Is(err, cuda.ErrOutOfMemory) {
			t.Fatalf("%s: Run = %v, want oom %t", c.name, err, c.oom)
		}
		w, release := em.Seal()
		if sealed := w.Compact(); !reflect.DeepEqual(sealed, ref) {
			t.Errorf("%s: the trace sealed in place differs from the copied one (%d vs %d ops)", c.name, len(w.Ops), len(ref.Ops))
		}
		if n := len(r.colls); n > 0 {
			var last *trace.Collective
			for i := range w.Ops {
				if w.Ops[i].Coll != nil {
					last = w.Ops[i].Coll
				}
			}
			if last != &r.colls[n-1] {
				t.Errorf("%s: the sealed collectives are not the scratch's", c.name)
			}
		}
		release()
		if w.Ops != nil {
			t.Errorf("%s: the worker keeps %d ops after release", c.name, len(w.Ops))
		}
		checkPooled(t, c.name, r)
	}
}
