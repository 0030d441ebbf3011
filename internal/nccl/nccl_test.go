package nccl

import (
	"errors"
	"testing"

	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
	"maya/internal/trace"
)

func dev(t *testing.T) *emulator.Emulator {
	t.Helper()
	return emulator.New(emulator.Config{GPU: hardware.H100(), Host: hardware.Host{}})
}

func TestUniqueIDDeterministicAndOrderInvariant(t *testing.T) {
	a := UniqueIDFor("tp", []int{0, 1, 2, 3})
	b := UniqueIDFor("tp", []int{3, 2, 1, 0})
	if a != b {
		t.Fatal("member order must not change the ID")
	}
	if UniqueIDFor("dp", []int{0, 1, 2, 3}) == a {
		t.Fatal("tag must change the ID")
	}
	if UniqueIDFor("tp", []int{0, 1, 2, 4}) == a {
		t.Fatal("membership must change the ID")
	}
}

func TestCommInitRecordsMembership(t *testing.T) {
	d := dev(t)
	if _, err := CommInitRank(d, 4, 2, UniqueIDFor("tp", []int{0, 1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	tr := d.Trace()
	found := false
	for _, op := range tr.Ops {
		if op.Kind == trace.KindCollective && op.Coll.Op == "ncclCommInitRank" {
			found = true
			if op.Coll.Seq != -1 || op.Coll.Rank != 2 || op.Coll.NRanks != 4 {
				t.Fatalf("init record = %+v", op.Coll)
			}
		}
	}
	if !found {
		t.Fatal("no init record in trace")
	}
}

func TestSequenceNumbersAdvancePerCommunicator(t *testing.T) {
	d := dev(t)
	c1, _ := CommInitRank(d, 2, 0, 1)
	c2, _ := CommInitRank(d, 2, 0, 2)
	_ = c1.AllReduce(100, cuda.DefaultStream)
	_ = c1.AllGather(100, cuda.DefaultStream)
	_ = c2.AllReduce(100, cuda.DefaultStream)
	var seqs []int
	var comms []uint64
	for _, op := range d.Trace().Ops {
		if op.Kind == trace.KindCollective && op.Coll.Seq >= 0 {
			seqs = append(seqs, op.Coll.Seq)
			comms = append(comms, op.Coll.CommID)
		}
	}
	if len(seqs) != 3 || seqs[0] != 0 || seqs[1] != 1 || seqs[2] != 0 {
		t.Fatalf("seqs = %v (comms %v)", seqs, comms)
	}
}

func TestTaggedMatchingUsesExplicitTags(t *testing.T) {
	d := dev(t)
	c, _ := CommInitRank(d, 2, 0, 7)
	if err := c.SendTagged(10, 1, 42, cuda.DefaultStream); err != nil {
		t.Fatal(err)
	}
	ops := d.Trace().Ops
	last := ops[len(ops)-1]
	if last.Coll.Seq != 42 {
		t.Fatalf("tag = %d, want 42", last.Coll.Seq)
	}
}

func TestPeerValidation(t *testing.T) {
	d := dev(t)
	c, _ := CommInitRank(d, 2, 0, 7)
	if err := c.SendTagged(10, 0, 1, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("self-send err = %v", err)
	}
	if err := c.RecvTagged(10, 5, 1, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("out-of-range peer err = %v", err)
	}
	if err := c.SendTagged(-1, 1, 1, cuda.DefaultStream); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("negative size err = %v", err)
	}
}

func TestBadInitArguments(t *testing.T) {
	d := dev(t)
	if _, err := CommInitRank(d, 0, 0, 1); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("nranks=0 err = %v", err)
	}
	if _, err := CommInitRank(d, 4, 4, 1); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("rank=nranks err = %v", err)
	}
	if _, err := CommInitRank(nil, 4, 0, 1); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("nil device err = %v", err)
	}
}
