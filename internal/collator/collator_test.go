package collator

import (
	"context"
	"strings"
	"testing"
	"time"

	"maya/internal/trace"
)

func worker(rank, world int) *trace.Worker {
	return &trace.Worker{Rank: rank, World: world, Device: "test"}
}

func addInit(w *trace.Worker, comm uint64, nranks, commRank int) {
	w.Append(trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
		Op: "ncclCommInitRank", CommID: comm, Seq: -1, NRanks: nranks, Rank: commRank, Peer: -1,
	}})
}

func addAllReduce(w *trace.Worker, comm uint64, seq int, nranks, commRank int, bytes int64) {
	w.Append(trace.Op{Kind: trace.KindCollective, Coll: &trace.Collective{
		Op: "ncclAllReduce", CommID: comm, Seq: seq, NRanks: nranks, Rank: commRank, Peer: -1, Bytes: bytes,
	}})
}

func TestMembershipReconstruction(t *testing.T) {
	// Comm 7: global ranks {2, 0} as comm ranks {0, 1}.
	w0 := worker(0, 3)
	addInit(w0, 7, 2, 1)
	w2 := worker(2, 3)
	addInit(w2, 7, 2, 0)
	res, err := Collate(context.Background(), []*trace.Worker{w0, w2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Comms[7]
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("membership = %v, want [2 0] (ordered by comm rank)", got)
	}
	if res.CommSizes[7] != 2 {
		t.Fatalf("size = %d", res.CommSizes[7])
	}
}

func TestConflictingCommRankRejected(t *testing.T) {
	w0 := worker(0, 2)
	addInit(w0, 7, 2, 0)
	w1 := worker(1, 2)
	addInit(w1, 7, 2, 0) // same comm rank claimed twice
	_, err := Collate(context.Background(), []*trace.Worker{w0, w1}, Options{})
	if err == nil || !strings.Contains(err.Error(), "claimed") {
		t.Fatalf("err = %v", err)
	}
}

func TestConflictingSizeRejected(t *testing.T) {
	w0 := worker(0, 2)
	addInit(w0, 7, 2, 0)
	w1 := worker(1, 2)
	addInit(w1, 7, 4, 1)
	_, err := Collate(context.Background(), []*trace.Worker{w0, w1}, Options{})
	if err == nil {
		t.Fatal("expected size-conflict error")
	}
}

func TestValidateCatchesByteMismatch(t *testing.T) {
	w0 := worker(0, 2)
	addAllReduce(w0, 7, 0, 2, 0, 1024)
	w1 := worker(1, 2)
	addAllReduce(w1, 7, 0, 2, 1, 2048) // different payload, same call
	_, err := Collate(context.Background(), []*trace.Worker{w0, w1}, Options{Validate: true})
	if err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("err = %v", err)
	}
	// Without validation it passes.
	if _, err := Collate(context.Background(), []*trace.Worker{w0, w1}, Options{}); err != nil {
		t.Fatalf("non-validating collate failed: %v", err)
	}
}

func TestParticipantsCountPresentWorkersOnly(t *testing.T) {
	w0 := worker(0, 4)
	addAllReduce(w0, 7, 0, 4, 0, 64)
	w1 := worker(1, 4)
	addAllReduce(w1, 7, 0, 4, 1, 64)
	res, err := Collate(context.Background(), []*trace.Worker{w0, w1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := trace.CollKey{Comm: 7, Seq: 0}
	if res.Participants[key] != 2 {
		t.Fatalf("participants = %d, want 2 (present), not 4 (declared)", res.Participants[key])
	}
}

func kernelOp(name string, bytes int64) trace.Op {
	return trace.Op{Kind: trace.KindKernel, Name: name, Bytes: bytes}
}

func TestSignatureAndDuplicateGroups(t *testing.T) {
	mk := func(rank int, kernels ...string) *trace.Worker {
		w := worker(rank, 4)
		for _, k := range kernels {
			w.Append(kernelOp(k, 128))
		}
		return w
	}
	a := mk(0, "x", "y")
	b := mk(1, "x", "y")
	c := mk(2, "x", "z")
	d := mk(3, "x", "y")
	groups := DuplicateGroups([]*trace.Worker{a, b, c, d})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if g := groups[0]; len(g) != 3 || g[0] != 0 || g[1] != 1 || g[2] != 3 {
		t.Fatalf("group of 0 = %v", g)
	}
	if g := groups[2]; len(g) != 1 {
		t.Fatalf("group of 2 = %v", g)
	}

	unique := Deduplicate([]*trace.Worker{a, b, c, d})
	if len(unique) != 2 || unique[0].Rank != 0 || unique[1].Rank != 2 {
		t.Fatalf("unique = %v", ranksOf(unique))
	}
}

func ranksOf(ws []*trace.Worker) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.Rank
	}
	return out
}

func TestSignatureIgnoresHostDelayDurations(t *testing.T) {
	gapped := func(rank int, gap, tail time.Duration) *trace.Worker {
		w := worker(rank, 2)
		op := kernelOp("k", 64)
		op.HostGap = gap
		w.Append(op)
		w.TailGap = tail
		return w
	}
	a, b := gapped(0, 100, 5), gapped(1, 999, 7)
	if Signature(a) != Signature(b) {
		t.Fatal("host-delay jitter must not break deduplication")
	}
	// Whether host time was spent is structure, not jitter.
	if Signature(a) == Signature(gapped(2, 0, 5)) || Signature(a) == Signature(gapped(3, 100, 0)) {
		t.Fatal("a gap present in one worker and absent in the other hashes equal")
	}
	if groups := groupBy([]*trace.Worker{a, b, gapped(2, 0, 5), gapped(3, 100, 0)}, constSig); len(groups) != 3 {
		t.Fatalf("groups = %v, want {0: [0 1], 2: [2], 3: [3]}", groups)
	}
}

// TestSignatureSensitiveToMemory keeps apart workers whose ops agree
// but whose allocations do not: a representative's peak and OOM flag
// stand for its duplicates'.
func TestSignatureSensitiveToMemory(t *testing.T) {
	a, b, c := worker(0, 2), worker(1, 2), worker(2, 2)
	for _, w := range []*trace.Worker{a, b, c} {
		w.Append(kernelOp("k", 64))
		w.PeakBytes = 1 << 20
	}
	b.PeakBytes++
	c.OOM = true
	if Signature(a) == Signature(b) || Signature(a) == Signature(c) {
		t.Fatal("workers with different peak memory or OOM flags hash equal")
	}
	if groups := groupBy([]*trace.Worker{a, b, c}, constSig); len(groups) != 3 {
		t.Fatalf("workers with different peak memory or OOM flags merged: %v", groups)
	}
}

// TestCraftedSignatureCollisionNotMerged pins both layers of the
// collision defense. The crafted worker pair below hashed identically
// under an unprefixed byte signature: a kernel name embedding the
// separator made one op's signature bytes equal two ops'. Hashing
// each string's length (layer 1) makes the boundaries unambiguous, so
// the splice no longer collides; and even on a raw 64-bit collision,
// the exact compare (layer 2) refuses to merge workers that differ.
func TestCraftedSignatureCollisionNotMerged(t *testing.T) {
	a := worker(0, 2)
	a.Append(trace.Op{Kind: trace.KindKernel, Name: "x"})
	a.Append(trace.Op{Kind: trace.KindKernel, Name: "y"})
	b := worker(1, 2)
	b.Append(trace.Op{Kind: trace.KindKernel, Name: "x|[]|0|0||0\x1f0|y"})

	if Signature(a) == Signature(b) {
		t.Fatal("length-prefixing no longer disambiguates the spliced op stream")
	}
	// Layer 2, independent of the hash: different op counts must
	// never merge, even when signatures agree.
	if sameWork(a, b) {
		t.Fatal("exact compare accepted workers with different op counts")
	}
	if groups := groupBy([]*trace.Worker{a, b}, constSig); len(groups) != 2 {
		t.Fatalf("workers with different op counts merged: groups = %v", groups)
	}
	if unique := Deduplicate([]*trace.Worker{a, b}); len(unique) != 2 {
		t.Fatalf("Deduplicate dropped a distinct worker: kept %v", ranksOf(unique))
	}
}

// constSig sends every worker to one bucket, as a collision would, so
// only the exact compare keeps workers apart.
func constSig(*trace.Worker) uint64 { return 0 }

// TestSameLengthKindMismatchNotMerged covers a kind mismatch: equal
// signatures and equal op counts, but different kind sequences, must
// still partition.
func TestSameLengthKindMismatchNotMerged(t *testing.T) {
	a := worker(0, 3)
	a.Append(trace.Op{Kind: trace.KindKernel, Name: "x"})
	a.Append(trace.Op{Kind: trace.KindDeviceSync})
	b := worker(1, 3)
	b.Append(trace.Op{Kind: trace.KindMemcpy, Name: "x"})
	b.Append(trace.Op{Kind: trace.KindDeviceSync})
	c := worker(2, 3)
	c.Append(trace.Op{Kind: trace.KindKernel, Name: "x"})
	c.Append(trace.Op{Kind: trace.KindDeviceSync})
	groups := groupBy([]*trace.Worker{a, b, c}, constSig)
	if len(groups) != 2 || len(groups[0]) != 2 || groups[0][1] != 2 {
		t.Fatalf("groups = %v, want {0: [0 2], 1: [1]}", groups)
	}
}

// TestCollisionSplitPastSampleWindow forces every worker into one
// signature bucket and changes one non-kind field at one position: a
// position a 64-op evenly spaced sample of kinds skips, and a field
// such a sample never reads. Only an exact compare of every field at
// every position keeps the workers apart.
func TestCollisionSplitPastSampleWindow(t *testing.T) {
	const n = 1000 // a 64-sample window steps by 15: position 7 is skipped
	mk := func(rank int) *trace.Worker {
		w := worker(rank, 8)
		for i := 0; i < n; i++ {
			w.Append(trace.OpOf(trace.KindKernel, &trace.Shape{
				Name: "gemm", Dims: []int{64, 64, 64}, Bytes: 4096, FLOPs: 1 << 20, DType: "bf16",
			}))
		}
		return w
	}
	base := mk(0)
	for field, change := range map[string]func(op *trace.Op){
		"name":   func(op *trace.Op) { op.Name = "gemm2" },
		"bytes":  func(op *trace.Op) { op.Bytes++ },
		"stream": func(op *trace.Op) { op.Stream = 1 },
		"gap":    func(op *trace.Op) { op.HostGap = 1 },
		"dims": func(op *trace.Op) {
			s := *op.Shape
			s.Dims = []int{64, 64, 65}
			op.Shape = &s
		},
		"flops": func(op *trace.Op) {
			s := *op.Shape
			s.FLOPs++
			op.Shape = &s
		},
		"dtype": func(op *trace.Op) {
			s := *op.Shape
			s.DType = "fp16"
			op.Shape = &s
		},
	} {
		other := mk(1)
		change(&other.Ops[7])
		if groups := groupBy([]*trace.Worker{base, other}, constSig); len(groups) != 2 {
			t.Errorf("%s differs at op 7 but the workers merged: %v", field, groups)
		}
	}
	// Event ids, Extra and MemKind are not work.
	same := mk(1)
	s := *same.Ops[7].Shape
	s.Extra, s.MemKind = map[string]float64{"ir": 1}, "DtoD"
	same.Ops[7].Shape, same.Ops[7].Event = &s, 42
	if groups := groupBy([]*trace.Worker{base, same}, constSig); len(groups) != 1 {
		t.Fatalf("workers doing the same work split: %v", groups)
	}
}

// TestGroupingIgnoresCommIdentity merges duplicates that sit on
// different communicators, and keeps apart collectives that differ in
// op, bytes or group size even when their signatures collide.
func TestGroupingIgnoresCommIdentity(t *testing.T) {
	mk := func(rank int, c trace.Collective) *trace.Worker {
		w := worker(rank, 2)
		w.Append(trace.Op{Kind: trace.KindCollective, Coll: &c})
		return w
	}
	base := trace.Collective{Op: "ncclAllReduce", CommID: 1, Seq: 5, NRanks: 4, Rank: 0, Bytes: 100}
	a := mk(0, base)
	b := mk(1, trace.Collective{Op: "ncclAllReduce", CommID: 2, Seq: 9, NRanks: 4, Rank: 3, Bytes: 100})
	if groups := DuplicateGroups([]*trace.Worker{a, b}); len(groups) != 1 {
		t.Fatalf("duplicates on different communicators split: %v", groups)
	}
	for field, change := range map[string]func(c *trace.Collective){
		"op":     func(c *trace.Collective) { c.Op = "ncclAllGather" },
		"bytes":  func(c *trace.Collective) { c.Bytes++ },
		"nranks": func(c *trace.Collective) { c.NRanks = 8 },
	} {
		c := base
		change(&c)
		if groups := groupBy([]*trace.Worker{a, mk(1, c)}, constSig); len(groups) != 2 {
			t.Errorf("collectives differing in %s merged: %v", field, groups)
		}
	}
}

func TestSignatureSensitiveToShapes(t *testing.T) {
	a := worker(0, 2)
	a.Append(kernelOp("k", 64))
	b := worker(1, 2)
	b.Append(kernelOp("k", 65))
	if Signature(a) == Signature(b) {
		t.Fatal("different byte volumes must change the signature")
	}
}
