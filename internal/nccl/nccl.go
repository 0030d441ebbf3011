// Package nccl emulates the NCCL communicator API. Each worker
// initializes communicators with CommInitRank using a shared unique
// ID; collectives then carry (communicator, sequence) identifiers the
// collator uses to reconstruct the global communication pattern —
// which workers participate and in what topology — exactly as the
// paper describes.
//
// Because the training control flow never depends on the transferred
// values, no data moves and no inter-process synchronization is
// needed: every worker just records its side of each collective.
package nccl

import (
	"fmt"
	"sort"

	"maya/internal/cuda"
	"maya/internal/prand"
)

// UniqueID identifies a communicator across workers, standing in for
// ncclUniqueId. All members must present the same ID.
type UniqueID uint64

// UniqueIDFor derives a deterministic unique ID from a logical group
// tag (e.g. "tp", "dp") and the global ranks of the members. Real
// jobs broadcast an ID from rank 0; deriving it deterministically
// gives the same global identity without IPC, which the paper notes
// the emulator does not need.
func UniqueIDFor(tag string, globalRanks []int) UniqueID {
	sorted := append([]int(nil), globalRanks...)
	sort.Ints(sorted)
	h := prand.Hash64("nccl", tag)
	for _, r := range sorted {
		h = prand.HashInts(h, int64(r))
	}
	return UniqueID(h)
}

// Communicator is one worker's handle on a collective group, as
// returned by ncclCommInitRank.
type Communicator struct {
	dev    cuda.Device
	id     UniqueID
	nranks int
	rank   int

	seq int // per-communicator collective counter
}

// CommInitRank initializes this worker's membership in a
// communicator. nranks is the group size and rank this worker's
// position within the group.
func CommInitRank(dev cuda.Device, nranks, rank int, id UniqueID) (*Communicator, error) {
	if dev == nil {
		return nil, fmt.Errorf("nccl: %w: nil device", cuda.ErrInvalidValue)
	}
	if nranks <= 0 || rank < 0 || rank >= nranks {
		return nil, fmt.Errorf("nccl: %w: rank %d of %d", cuda.ErrInvalidValue, rank, nranks)
	}
	c := &Communicator{dev: dev, id: id, nranks: nranks, rank: rank}
	// Record the initialization so the collator can learn communicator
	// membership (which global ranks own which comm rank).
	err := dev.LaunchCollective(cuda.CollectiveDesc{
		Op:     "ncclCommInitRank",
		CommID: uint64(id),
		Seq:    -1,
		NRanks: nranks,
		Rank:   rank,
		Peer:   -1,
	}, cuda.DefaultStream)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Communicator) collective(op string, bytes int64, s cuda.Stream) error {
	if bytes < 0 {
		return fmt.Errorf("nccl: %w: %s of %d bytes", cuda.ErrInvalidValue, op, bytes)
	}
	seq := c.seq
	c.seq++
	return c.dev.LaunchCollective(cuda.CollectiveDesc{
		Op:     op,
		CommID: uint64(c.id),
		Seq:    seq,
		NRanks: c.nranks,
		Rank:   c.rank,
		Peer:   -1,
		Bytes:  bytes,
	}, s)
}

// AllReduce reduces bytes of payload across the group (ncclAllReduce).
func (c *Communicator) AllReduce(bytes int64, s cuda.Stream) error {
	return c.collective("ncclAllReduce", bytes, s)
}

// AllGather gathers each rank's bytes-sized shard (ncclAllGather).
// bytes is the per-rank contribution, as in nccl-tests.
func (c *Communicator) AllGather(bytes int64, s cuda.Stream) error {
	return c.collective("ncclAllGather", bytes, s)
}

// ReduceScatter reduces and scatters shards (ncclReduceScatter).
// bytes is the per-rank output size.
func (c *Communicator) ReduceScatter(bytes int64, s cuda.Stream) error {
	return c.collective("ncclReduceScatter", bytes, s)
}

// AllToAll exchanges bytes-per-peer shards between all ranks.
func (c *Communicator) AllToAll(bytes int64, s cuda.Stream) error {
	return c.collective("ncclAllToAll", bytes, s)
}

// SendTagged transfers bytes to peer with an explicit matching tag,
// the way frameworks realize deterministic P2P matching for complex
// pipeline schedules (Megatron's batched isend/irecv groups). The
// tag is the call's sequence number in the trace.
func (c *Communicator) SendTagged(bytes int64, peer, tag int, s cuda.Stream) error {
	return c.p2p("ncclSend", bytes, peer, tag, s)
}

// RecvTagged receives bytes from peer with an explicit matching tag.
func (c *Communicator) RecvTagged(bytes int64, peer, tag int, s cuda.Stream) error {
	return c.p2p("ncclRecv", bytes, peer, tag, s)
}

func (c *Communicator) p2p(op string, bytes int64, peer, tag int, s cuda.Stream) error {
	if peer < 0 || peer >= c.nranks || peer == c.rank {
		return fmt.Errorf("nccl: %w: peer %d of %d (self %d)", cuda.ErrInvalidValue, peer, c.nranks, c.rank)
	}
	if bytes < 0 {
		return fmt.Errorf("nccl: %w: p2p of %d bytes", cuda.ErrInvalidValue, bytes)
	}
	return c.dev.LaunchCollective(cuda.CollectiveDesc{
		Op:     op,
		CommID: uint64(c.id),
		Seq:    tag,
		NRanks: c.nranks,
		Rank:   c.rank,
		Peer:   peer,
		Bytes:  bytes,
	}, s)
}
