package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func sampleWorker(rank int) *Worker {
	w := &Worker{Rank: rank, World: 4, Device: "H100"}
	w.Append(Op{Kind: KindHostDelay, Dur: 5 * time.Microsecond})
	gemm := &Shape{Name: "cublasGemmEx", Dims: []int{1, 128, 128, 128}, FLOPs: 2 * 128 * 128 * 128,
		Bytes: 3 * 2 * 128 * 128, DType: "bf16", Extra: map[string]float64{"tile": 2}}
	w.Append(Op{Kind: KindKernel, Name: gemm.Name, Stream: 0, Bytes: gemm.Bytes, Shape: gemm})
	w.Append(Op{Kind: KindMemcpy, Name: "MemcpyHtoD", Stream: 1, Bytes: 4096,
		Shape: &Shape{Name: "MemcpyHtoD", Bytes: 4096, MemKind: "HtoD"}})
	w.Append(Op{Kind: KindCollective, Name: "ncclAllReduce", Stream: 1, Bytes: 1 << 20,
		Coll: &Collective{Op: "ncclAllReduce", CommID: 0xBEEF, Seq: 0, NRanks: 4, Rank: rank, Peer: -1, Bytes: 1 << 20}})
	w.Append(Op{Kind: KindEventRecord, Stream: 1, Event: 3, EventVer: 1})
	w.Append(Op{Kind: KindMark, Name: MarkIterEnd})
	return w
}

func TestAppendAssignsSequence(t *testing.T) {
	w := sampleWorker(0)
	for i, op := range w.Ops {
		if op.Seq != i {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	j, err := NewJob([]*Worker{sampleWorker(0), sampleWorker(1)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", j.Workers[0].Ops[1], back.Workers[0].Ops[1])
	}
}

// binaryJob encodes j in the binary form.
func binaryJob(t *testing.T, j *Job) []byte {
	t.Helper()
	var e Encoder
	if err := e.Job(j); err != nil {
		t.Fatal(err)
	}
	return e.B
}

// TestBinaryRoundTrip decodes an encoded job deep-equal to the original,
// and checks its bytes depend only on content: ops pointing at two
// equal shapes write what ops sharing one shape do.
func TestBinaryRoundTrip(t *testing.T) {
	shared, copied := sampleWorker(0), sampleWorker(0)
	for _, w := range []*Worker{shared, copied} {
		gemm := w.Ops[1].Shape
		if w == copied {
			c := *gemm
			c.Dims, c.Extra = []int{1, 128, 128, 128}, map[string]float64{"tile": 2}
			gemm = &c
		}
		w.Append(OpOf(KindKernel, gemm))
		// An op whose name and bytes are not its shape's keeps its own.
		op := OpOf(KindKernel, gemm)
		op.Name, op.Bytes, op.Dur = "renamed", 7, time.Millisecond
		w.Append(op)
	}
	j, err := NewJob([]*Worker{shared, sampleWorker(1)})
	if err != nil {
		t.Fatal(err)
	}
	j.UniqueRanks = []int{0, 1}
	b := binaryJob(t, j)
	d := NewDecoder(b)
	back := d.Job()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, j) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", back.Workers[0].Ops, j.Workers[0].Ops)
	}
	if again := binaryJob(t, back); !bytes.Equal(again, b) {
		t.Error("the decoded job writes different bytes")
	}
	j.Workers[0] = copied
	if !bytes.Equal(binaryJob(t, j), b) {
		t.Error("equal shapes behind distinct pointers write different bytes")
	}
}

func TestKindJSONNames(t *testing.T) {
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"collective"`)); err != nil {
		t.Fatal(err)
	}
	if k != KindCollective {
		t.Fatalf("got %v", k)
	}
	if err := k.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestNewJobRejectsDuplicateRanks(t *testing.T) {
	_, err := NewJob([]*Worker{sampleWorker(1), sampleWorker(1)})
	if err == nil {
		t.Fatal("expected duplicate-rank error")
	}
}

func TestNewJobAllowsSparseRanks(t *testing.T) {
	j, err := NewJob([]*Worker{sampleWorker(4), sampleWorker(0)})
	if err != nil {
		t.Fatal(err)
	}
	if j.Workers[0].Rank != 0 || j.Workers[1].Rank != 4 {
		t.Fatalf("workers not sorted: %d, %d", j.Workers[0].Rank, j.Workers[1].Rank)
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := sampleWorker(0)
	c := w.Clone(2)
	if c.Rank != 2 || c.Dedup != 0 {
		t.Fatalf("clone rank/dedup = %d/%d", c.Rank, c.Dedup)
	}
	// A clone shares the immutable shapes and nothing else: not the op
	// array, not a collective.
	for i := range w.Ops {
		if c.Ops[i].Shape != w.Ops[i].Shape {
			t.Fatalf("op %d: clone has its own copy of the shape", i)
		}
	}
	c.Ops[1].Dur = time.Hour
	c.Ops[3].Coll.Bytes = 7
	if w.Ops[1].Dur == time.Hour {
		t.Fatal("clone shares the op array")
	}
	if w.Ops[3].Coll.Bytes == 7 {
		t.Fatal("clone shares Collective pointer")
	}
}

// TestOpLayout pins the size of an op. Half of every trace is host
// delays and event ops, so each byte of Op is paid on ~87 k ops of a
// 64-rank GPT-3 trace, at every seal and every replay walk; a kernel's
// shape lives behind the one Shape pointer for that reason.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 96 {
		t.Fatalf("trace.Op is %d bytes, want at most 96: kernel-shape data belongs in Shape", n)
	}
}

func TestShapesIntern(t *testing.T) {
	var tab Shapes
	dims := []int{1, 2, 3}
	extra := map[string]float64{"triton_instrs": 4}
	a := tab.Intern(KindKernel, &Shape{Name: "k", Dims: dims, DType: "bf16", Extra: extra})
	// The table kept copies: the caller's slice and map are free to change.
	dims[0], extra["triton_instrs"] = -1, 99
	if a.Dims[0] != 1 || a.Extra["triton_instrs"] != 4 {
		t.Fatalf("interned shape aliases the caller's dims or extra: %+v", a)
	}
	if b := tab.Intern(KindKernel, &Shape{Name: "k", Dims: []int{1, 2, 3}, DType: "bf16", Extra: map[string]float64{"triton_instrs": 4}}); b != a {
		t.Fatal("an equal shape interned twice")
	}
	for _, s := range []*Shape{
		{Name: "k", Dims: []int{1, 2}, DType: "bf16", Extra: map[string]float64{"triton_instrs": 4}},
		{Name: "k", Dims: []int{1, 2, 3}, DType: "fp16", Extra: map[string]float64{"triton_instrs": 4}},
		{Name: "k", Dims: []int{1, 2, 3}, DType: "bf16"},
		{Name: "k", Dims: []int{1, 2, 3}, DType: "bf16", Extra: map[string]float64{"triton_instrs": 5}},
	} {
		if tab.Intern(KindKernel, s) == a {
			t.Fatalf("%+v interned as %+v", s, a)
		}
	}
	if tab.Intern(KindMemset, &Shape{Name: "k", Dims: []int{1, 2, 3}, DType: "bf16", Extra: map[string]float64{"triton_instrs": 4}}) == a {
		t.Fatal("one shape shared across op kinds")
	}
	if e := tab.Intern(KindKernel, &Shape{Name: "e", Dims: []int{}, Extra: map[string]float64{}}); e.Dims != nil || e.Extra != nil {
		t.Fatalf("empty dims and extra are not normalized to nil: %#v", e)
	}
}

// TestShapesInternProbesPastCollisions plants a different shape in
// the slot a shape hashes to: a hash hit is verified, never trusted.
func TestShapesInternProbesPastCollisions(t *testing.T) {
	s := &Shape{Name: "k", FLOPs: 1}
	decoy := &Shape{Name: "decoy"}
	var tab Shapes
	tab.byKind[KindKernel] = map[uint64]*Shape{s.hash(): decoy}
	a := tab.Intern(KindKernel, s)
	if a == decoy || !a.equal(s) {
		t.Fatalf("Intern(%+v) = %+v", s, a)
	}
	if b := tab.Intern(KindKernel, &Shape{Name: "k", FLOPs: 1}); b != a {
		t.Fatal("a shape past a collision is not found again")
	}
	if tab.byKind[KindKernel][s.hash()] != decoy {
		t.Fatal("interning displaced the shape in the colliding slot")
	}
}

func TestJobCloneIndependent(t *testing.T) {
	j, err := NewJob([]*Worker{sampleWorker(0)})
	if err != nil {
		t.Fatal(err)
	}
	c := j.Clone()
	c.Workers[0].Ops[1].Dur = time.Hour
	if j.Workers[0].Ops[1].Dur == time.Hour {
		t.Fatal("job clone shares ops")
	}
}

func TestStats(t *testing.T) {
	st := sampleWorker(0).Stats()
	if st.Kernels != 1 || st.Collectives != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HostTime != 5*time.Microsecond {
		t.Fatalf("host time = %v", st.HostTime)
	}
	if st.ByName["cublasGemmEx"] != 1 || st.Memcpys != 1 || st.ByName["MemcpyHtoD"] != 1 {
		t.Fatalf("byName = %v", st.ByName)
	}
}

func TestCollKeyMatchesSendRecvPairs(t *testing.T) {
	send := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclSend", CommID: 9, Seq: 3, NRanks: 4, Rank: 1, Peer: 2}}
	recv := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclRecv", CommID: 9, Seq: 3, NRanks: 4, Rank: 2, Peer: 1}}
	if CollKeyOf(send) != CollKeyOf(recv) {
		t.Fatalf("send/recv keys differ: %+v vs %+v", CollKeyOf(send), CollKeyOf(recv))
	}
	reversed := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclSend", CommID: 9, Seq: 3, NRanks: 4, Rank: 2, Peer: 1}}
	if CollKeyOf(send) == CollKeyOf(reversed) {
		t.Fatal("opposite-direction sends must not match")
	}
}

func TestParticipationCounts(t *testing.T) {
	j, err := NewJob([]*Worker{sampleWorker(0), sampleWorker(1), sampleWorker(2)})
	if err != nil {
		t.Fatal(err)
	}
	parts := Participation(j)
	key := CollKey{Comm: 0xBEEF, Seq: 0}
	if parts[key] != 3 {
		t.Fatalf("participation = %d, want 3 (present workers)", parts[key])
	}
}

func TestExpandRanksProperties(t *testing.T) {
	// Property: the expansion always returns `size` ranks, starts at
	// the first known rank, and preserves a uniform stride.
	if err := quick.Check(func(firstRaw, strideRaw, sizeRaw uint8) bool {
		size := int(sizeRaw%8) + 2
		stride := int(strideRaw%4) + 1
		world := size * stride * 2
		first := int(firstRaw) % stride
		known := []int{first, first + stride}
		out := ExpandRanks(known, size, world)
		if len(out) != size {
			return false
		}
		for i := 1; i < len(out); i++ {
			if (out[i]-out[i-1]+world)%world != stride {
				return false
			}
		}
		return out[0] == first
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigStringIgnoresCommIdentity(t *testing.T) {
	a := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclAllReduce", CommID: 1, Seq: 5, NRanks: 4, Rank: 0, Bytes: 100}}
	b := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclAllReduce", CommID: 2, Seq: 9, NRanks: 4, Rank: 3, Bytes: 100}}
	if a.SigString() != b.SigString() {
		t.Fatal("duplicate workers on different communicators must hash equal")
	}
	c := &Op{Kind: KindCollective, Coll: &Collective{Op: "ncclAllReduce", CommID: 1, Seq: 5, NRanks: 8, Rank: 0, Bytes: 100}}
	if a.SigString() == c.SigString() {
		t.Fatal("different group sizes must hash differently")
	}
}
