package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func sampleWorker(rank int) *Worker {
	w := &Worker{Rank: rank, World: 4, Device: "H100"}
	gemm := &Shape{Name: "cublasGemmEx", Dims: []int{1, 128, 128, 128}, FLOPs: 2 * 128 * 128 * 128,
		Bytes: 3 * 2 * 128 * 128, DType: "bf16", Extra: map[string]float64{"tile": 2}}
	w.Append(Op{Kind: KindKernel, Name: gemm.Name, Stream: 0, Bytes: gemm.Bytes, Shape: gemm, HostGap: 5 * time.Microsecond})
	w.Append(Op{Kind: KindMemcpy, Name: "MemcpyHtoD", Stream: 1, Bytes: 4096,
		Shape: &Shape{Name: "MemcpyHtoD", Bytes: 4096, MemKind: "HtoD"}})
	w.Append(Op{Kind: KindCollective, Name: "ncclAllReduce", Stream: 1, Bytes: 1 << 20,
		Coll: &Collective{Op: "ncclAllReduce", CommID: 0xBEEF, Seq: 0, NRanks: 4, Rank: rank, Peer: -1, Bytes: 1 << 20}})
	w.Append(Op{Kind: KindEventRecord, Stream: 1, Event: 3, EventVer: 1})
	w.Append(Op{Kind: KindMark, Name: MarkIterEnd})
	return w
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
		gemm := w.Ops[0].Shape
		if w == copied {
			c := *gemm
			c.Dims, c.Extra = []int{1, 128, 128, 128}, map[string]float64{"tile": 2}
			gemm = &c
		}
		w.Append(OpOf(KindKernel, gemm))
		// An op whose name and bytes are not its shape's keeps its own.
		op := OpOf(KindKernel, gemm)
		op.Name, op.Bytes = "renamed", 7
		w.Append(op)
	}
	tail := sampleWorker(1)
	tail.TailGap = 3 * time.Microsecond
	j, err := NewJob([]*Worker{shared, tail})
	if err != nil {
		t.Fatal(err)
	}
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

func TestCompactIsDeep(t *testing.T) {
	w := sampleWorker(0)
	c := w.Compact()
	if c.Rank != w.Rank || len(c.Ops) != cap(c.Ops) {
		t.Fatalf("compact rank %d, ops len %d cap %d", c.Rank, len(c.Ops), cap(c.Ops))
	}
	// A compacted worker shares the immutable shapes and nothing else:
	// not the op array, not a collective.
	for i := range w.Ops {
		if c.Ops[i].Shape != w.Ops[i].Shape {
			t.Fatalf("op %d: compact has its own copy of the shape", i)
		}
	}
	c.Ops[0].HostGap = time.Hour
	c.Ops[2].Coll.Bytes = 7
	if w.Ops[0].HostGap == time.Hour {
		t.Fatal("compact shares the op array")
	}
	if w.Ops[2].Coll.Bytes == 7 {
		t.Fatal("compact shares Collective pointer")
	}
}

// TestOpLayout pins the size of an op and that an op is a device call.
// Each byte of Op is paid on every op of a trace, at every seal and
// every replay walk; a kernel's shape lives behind the one Shape
// pointer for that reason. An op is its position and its call: its
// index is its identity, and its duration is an overlay's, so it
// carries no sequence number and no duration. Host time rides on the
// next op as its HostGap, so no exported kind may be host-only and no
// op carries a malloc's device pointer: a host-delay, malloc or free op
// would double the ops every stage after capture walks.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 80 {
		t.Fatalf("trace.Op is %d bytes, want at most 80: kernel-shape data belongs in Shape", n)
	}
	for field, why := range map[string]string{
		"Ptr": "mallocs and frees record no op",
		"Seq": "an op's position is its identity",
		"Dur": "durations live in an Annotations overlay",
	} {
		if _, ok := reflect.TypeOf(Op{}).FieldByName(field); ok {
			t.Errorf("trace.Op has a %s field: %s", field, why)
		}
	}
	if _, ok := reflect.TypeOf(Op{}).FieldByName("HostGap"); !ok {
		t.Error("trace.Op has no HostGap field")
	}

	// The exported Kind constants are exactly the device calls.
	want := []string{"KindCollective", "KindDeviceSync", "KindEventRecord", "KindEventSync", "KindKernel",
		"KindMark", "KindMemcpy", "KindMemset", "KindStreamSync", "KindStreamWait"}
	fset := token.NewFileSet()
	var got []string
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			// A spec without a type of its own repeats the one above.
			var typ ast.Expr
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil || len(vs.Values) > 0 {
					typ = vs.Type
				}
				if id, ok := typ.(*ast.Ident); !ok || id.Name != "Kind" {
					continue
				}
				for _, n := range vs.Names {
					if n.IsExported() {
						got = append(got, n.Name)
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("exported kinds = %v, want the device calls %v", got, want)
	}
}

// legacyOps is one worker's ops as version-1 and -2 traces recorded
// them, host-only records included, and what they fold to.
var legacyOps = []struct {
	kind  Kind
	dur   time.Duration
	bytes int64
	ptr   uint64
}{
	{kindHostDelay, 3, 0, 0},
	{kindMalloc, 0, 4096, 512},
	{kindHostDelay, 4, 0, 0},
	{KindKernel, 0, 0, 0},
	{kindHostDelay, 5, 0, 0},
	{KindMark, 0, 0, 0},
	{kindFree, 0, 4096, 512},
	{kindHostDelay, 6, 0, 0},
}

// TestLegacyRecordsFold reads the same host-only records from a
// version-1 JSON job and a version-2 binary one: each folds into the
// next op's HostGap, or the worker's TailGap, and mallocs and frees
// leave nothing.
func TestLegacyRecordsFold(t *testing.T) {
	var js []string
	for i, o := range legacyOps {
		js = append(js, fmt.Sprintf(`{"seq":%d,"kind":%q,"name":"k","bytes":%d,"ptr":%d,"dur":%d}`, i, o.kind, o.bytes, o.ptr, o.dur))
	}
	var p JobJSON
	if err := json.Unmarshal([]byte(`{"workers":[{"rank":0,"world":1,"ops":[`+strings.Join(js, ",")+`]}]}`), &p); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := p.Job()
	if err != nil {
		t.Fatal(err)
	}

	// The version-2 form: no tail gap, and a device pointer where the
	// gap flag now stands.
	var e Encoder
	workerHead(&e)
	e.Uvarint(1)
	e.Str("k")
	e.Uvarint(0) // shapes
	e.Uvarint(0) // collectives
	e.Len(len(legacyOps), false)
	for _, o := range legacyOps {
		e.Byte(byte(o.kind))
		flags := byte(opName)
		if o.bytes != 0 {
			flags |= opBytes | opGap
		}
		if o.dur != 0 {
			flags |= opDur
		}
		e.Byte(flags)
		e.Uvarint(0)
		if o.bytes != 0 {
			e.Varint(o.bytes)
			e.Uvarint(o.ptr)
		}
		if o.dur != 0 {
			e.Varint(int64(o.dur))
		}
	}
	d := NewDecoder(e.B)
	fromV2 := d.JobV2()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}

	want := []Op{
		{Kind: KindKernel, Name: "k", HostGap: 7},
		{Kind: KindMark, Name: "k", HostGap: 5},
	}
	for name, j := range map[string]*Job{"v1": fromJSON, "v2": fromV2} {
		w := j.Workers[0]
		got := slices.Clone(w.Ops)
		for i := range got {
			got[i].Shape = nil // a kernel from JSON gets one; the binary form above gives none
		}
		if !reflect.DeepEqual(got, want) || w.TailGap != 6 {
			t.Errorf("%s folds to %+v, tail %v; want %+v, tail 6", name, got, w.TailGap, want)
		}
	}

	// The current form knows no host-only kind.
	var cur Encoder
	workerHead(&cur)
	cur.Varint(0) // tail gap
	cur.Uvarint(0)
	cur.Uvarint(0)
	cur.Uvarint(0)
	cur.Len(1, false)
	cur.Byte(byte(kindHostDelay))
	cur.Byte(0)
	d = NewDecoder(cur.B)
	d.Job()
	if err := d.End(); err == nil || !strings.Contains(err.Error(), "unknown op kind") {
		t.Errorf("a host delay in the current form: %v, want an unknown kind", err)
	}
	// The current form reads a device call's dur and drops it: the job
	// writes the record without it.
	v3Kernel := func(flags byte) []byte {
		var e Encoder
		workerHead(&e)
		e.Varint(0) // tail gap
		e.Uvarint(1)
		e.Str("k")
		e.Uvarint(0) // shapes
		e.Uvarint(0) // collectives
		e.Len(1, false)
		e.Byte(byte(KindKernel))
		e.Byte(flags)
		e.Uvarint(0) // name
		if flags&opDur != 0 {
			e.Varint(int64(time.Millisecond))
		}
		return e.B
	}
	d = NewDecoder(v3Kernel(opName | opDur))
	withDur := d.Job()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if got, want := binaryJob(t, withDur), v3Kernel(opName); !bytes.Equal(got, want) {
		t.Errorf("a kernel read with a dur writes %x, want %x", got, want)
	}

	if err := new(Encoder).Job(fromV2); err != nil {
		t.Fatal(err)
	}
	fromV2.Workers[0].Ops[1].Kind = kindFree
	if err := new(Encoder).Job(fromV2); err == nil {
		t.Error("the encoder writes a free")
	}
}

// workerHead writes a job of one worker up to its oom flag.
func workerHead(e *Encoder) {
	e.Len(0, true) // unique ranks
	e.Len(1, false)
	e.Varint(0) // rank
	e.Str("")
	e.Varint(1) // world
	e.Varint(0) // peak
	e.Varint(0) // dedup
	e.Byte(0)   // oom
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
// the slot a shape probes first: a hash hit is verified, never trusted.
func TestShapesInternProbesPastCollisions(t *testing.T) {
	s := &Shape{Name: "k", FLOPs: 1}
	decoy := &Shape{Name: "decoy"}
	var tab Shapes
	tab.slots[KindKernel] = make([]*Shape, minSlots)
	first := &tab.slots[KindKernel][s.hash()&(minSlots-1)]
	*first = decoy
	a := tab.Intern(KindKernel, s)
	if a == decoy || !a.equal(s) {
		t.Fatalf("Intern(%+v) = %+v", s, a)
	}
	if b := tab.Intern(KindKernel, &Shape{Name: "k", FLOPs: 1}); b != a {
		t.Fatal("a shape past a collision is not found again")
	}
	if *first != decoy {
		t.Fatal("interning displaced the shape in the colliding slot")
	}
}

// TestShapesSuccessorIsVerified interns a repeating, then shuffled
// sequence through one table and through a second one whose guess is
// cleared before every call, so it always hashes and probes: both
// must return the same shapes at the same positions. A guessed
// successor that differs from what is interned in one field, or in
// the op kind, is never returned.
func TestShapesSuccessorIsVerified(t *testing.T) {
	type call struct {
		kind Kind
		s    Shape
	}
	base := Shape{Name: "k", Dims: []int{8, 16}, Bytes: 64, FLOPs: 128, DType: "bf16",
		Extra: map[string]float64{"x": 0}, MemKind: "DtoD"}
	head := call{KindKernel, Shape{Name: "head", Dims: []int{1}}}
	with := func(edit func(*Shape)) Shape {
		s := base
		edit(&s)
		return s
	}
	variants := map[string]call{
		"dim":        {KindKernel, with(func(s *Shape) { s.Dims = []int{8, 17} })},
		"dtype":      {KindKernel, with(func(s *Shape) { s.DType = "fp16" })},
		"memkind":    {KindKernel, with(func(s *Shape) { s.MemKind = "HtoD" })},
		"extra bits": {KindKernel, with(func(s *Shape) { s.Extra = map[string]float64{"x": math.Copysign(0, -1)} })},
		"kind":       {KindMemset, base},
	}

	// Each variant, right after the guess learned that base follows head.
	var tab Shapes
	for name, v := range variants {
		want := tab.Intern(KindKernel, &base)
		for range 3 {
			tab.Intern(head.kind, &head.s)
			if got := tab.Intern(KindKernel, &base); got != want {
				t.Fatalf("base interned as %p, then %p", want, got)
			}
		}
		tab.Intern(head.kind, &head.s)
		if got := tab.Intern(v.kind, &v.s); got == want || !got.equal(&v.s) {
			t.Errorf("%s: Intern(%+v) returned the guessed %+v", name, v.s, got)
		}
	}

	// The same contents, repeating and then shuffled, through a fresh
	// table and through one that never guesses.
	calls := []call{head, {KindKernel, base}}
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		calls = append(calls, variants[name])
	}
	var seq []call
	for range 4 {
		seq = append(seq, calls...)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		seq = append(seq, calls[rng.IntN(len(calls))])
	}
	var guessing, probing Shapes
	pair := make(map[*Shape]*Shape)
	kindOf := make(map[*Shape]Kind)
	hits := 0
	for i, c := range seq {
		in := c.s
		in.Dims, in.Extra = slices.Clone(c.s.Dims), maps.Clone(c.s.Extra) // fresh storage each call
		if last := guessing.last[c.kind]; last != nil {
			if g := guessing.next[c.kind][last.pos]; g != nil && g.equal(&in) {
				hits++
			}
		}
		got := guessing.Intern(c.kind, &in)
		probing.last = [len(kindNames)]*Shape{}
		want := probing.Intern(c.kind, &in)
		if !got.equal(&c.s) || got.Pos() != want.Pos() {
			t.Fatalf("call %d: Intern(%v, %+v) = %+v at %d, want %+v at %d", i, c.kind, c.s, got, got.Pos(), want, want.Pos())
		}
		if p, ok := pair[got]; ok && p != want {
			t.Fatalf("call %d: %p paired with both %p and %p", i, got, p, want)
		}
		if k, ok := kindOf[got]; ok && k != c.kind {
			t.Fatalf("call %d: one shape returned for a %v and a %v", i, k, c.kind)
		}
		pair[got], kindOf[got] = want, c.kind
	}
	if len(pair) != len(calls) {
		t.Errorf("%d shapes for %d distinct calls", len(pair), len(calls))
	}
	if hits == 0 {
		t.Error("the guess never hit")
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

// TestDecodedShapePositions decodes a worker whose shape table is out
// of first-use order and lists one kernel shape twice: each kind's
// shapes are numbered in the order ops first use them, as the
// emulator's table numbers them, the duplicate decodes to the shape it
// repeats, and the job round-trips deep-equal.
func TestDecodedShapePositions(t *testing.T) {
	var e Encoder
	workerHead(&e)
	e.Varint(0) // tail gap
	e.Uvarint(3)
	for _, s := range []string{"", "a", "b"} {
		e.Str(s)
	}
	// The table: kernel a, memset a, kernel b, kernel a again.
	table := []struct {
		kind Kind
		name uint64
	}{{KindKernel, 1}, {KindMemset, 1}, {KindKernel, 2}, {KindKernel, 1}}
	e.Uvarint(uint64(len(table)))
	for _, s := range table {
		e.Byte(byte(s.kind))
		e.Uvarint(s.name)
		e.Uvarint(0) // dims
		e.Varint(64) // bytes
		e.Varint(0)  // flops
		e.Uvarint(0) // dtype
		e.Uvarint(0) // extra
		e.Uvarint(0) // memKind
	}
	e.Uvarint(0) // collectives
	uses := []uint64{2, 3, 1, 0}
	e.Len(len(uses), false)
	for _, k := range uses {
		e.Byte(byte(table[k].kind))
		e.Byte(opShape)
		e.Uvarint(k)
	}
	d := NewDecoder(e.B)
	j := d.Job()
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	ops := j.Workers[0].Ops
	b, a, m := ops[0].Shape, ops[1].Shape, ops[2].Shape
	if b.Name != "b" || a.Name != "a" || m.Name != "a" || ops[3].Shape != a {
		t.Fatalf("ops point to %+v %+v %+v %+v", *b, *a, *m, *ops[3].Shape)
	}
	if b.Pos() != 0 || a.Pos() != 1 || m.Pos() != 0 {
		t.Fatalf("positions b %d, a %d, memset %d; want 0, 1, 0", b.Pos(), a.Pos(), m.Pos())
	}
	d = NewDecoder(binaryJob(t, j))
	if back := d.Job(); d.End() != nil || !reflect.DeepEqual(back, j) {
		t.Fatalf("the decoded job does not round-trip: %v", d.End())
	}
}
