// Package collator reconstructs the distributed execution pattern
// from individual worker traces: it merges them into a job-level
// trace, learns communicator membership from ncclCommInitRank
// records, matches collective calls across workers by
// (communicator, sequence) keys, and validates that matched calls
// agree on payload and group size.
//
// It also implements Maya's dynamic worker deduplication: workers
// whose operation sequences hash identically (rolling hash over
// operation signatures) are redundant — in data-parallel training
// most workers are — and only one representative per group needs to
// be emulated further and simulated.
package collator

import (
	"context"
	"fmt"
	"sort"
	"time"

	"maya/internal/trace"
)

// Options controls collation.
type Options struct {
	// Validate enables cross-worker consistency checks on matched
	// collectives (mismatched bytes or group sizes fail collation).
	Validate bool
}

// Result is the collated view of a job.
type Result struct {
	// Job holds the (possibly deduplicated) workers, sorted by rank.
	Job *trace.Job
	// Comms maps communicator IDs to member global ranks ordered by
	// their rank within the communicator. Membership may be partial
	// when only unique workers were emulated.
	Comms map[uint64][]int
	// CommSizes maps communicator IDs to their declared size.
	CommSizes map[uint64]int
	// Participants counts, per collective call, how many present
	// workers join it — the simulator's wait-map expectations.
	Participants map[trace.CollKey]int
}

// Collate merges worker traces into a job-level result. Cancellation
// of ctx is observed between the per-worker passes.
func Collate(ctx context.Context, workers []*trace.Worker, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	job, err := trace.NewJob(workers)
	if err != nil {
		return nil, err
	}
	comms, sizes, err := CommMembership(job.Workers)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Validate {
		if err := validateCollectives(job); err != nil {
			return nil, err
		}
	}
	return &Result{
		Job:          job,
		Comms:        comms,
		CommSizes:    sizes,
		Participants: trace.Participation(job),
	}, nil
}

// CommMembership reconstructs communicator membership (global ranks
// ordered by communicator rank) and declared sizes from the
// ncclCommInitRank records in worker traces. With deduplication, the
// pre-dedup worker set yields complete membership; the collator's own
// pass over unique workers yields a partial view.
func CommMembership(workers []*trace.Worker) (map[uint64][]int, map[uint64]int, error) {
	inits := make([][]CommInit, len(workers))
	for i, w := range workers {
		inits[i] = CommInits(w)
	}
	return Membership(inits)
}

// CommInit is one ncclCommInitRank record: the worker of global rank
// Global joined communicator Comm, of NRanks ranks, as its rank Rank.
type CommInit struct {
	Comm   uint64
	NRanks int
	Rank   int
	Global int
}

// CommInits returns w's ncclCommInitRank records in trace order.
func CommInits(w *trace.Worker) []CommInit {
	var inits []CommInit
	for i := range w.Ops {
		op := &w.Ops[i]
		if op.Kind != trace.KindCollective || op.Coll.Op != "ncclCommInitRank" {
			continue
		}
		c := op.Coll
		inits = append(inits, CommInit{Comm: c.CommID, NRanks: c.NRanks, Rank: c.Rank, Global: w.Rank})
	}
	return inits
}

// Membership is CommMembership over records already read: inits[i]
// holds the ith worker's, as CommInits returns them.
func Membership(inits [][]CommInit) (map[uint64][]int, map[uint64]int, error) {
	members := make(map[uint64][]CommInit)
	sizes := make(map[uint64]int)
	for _, ws := range inits {
		for _, in := range ws {
			if prev, ok := sizes[in.Comm]; ok && prev != in.NRanks {
				return nil, nil, fmt.Errorf("collator: comm %#x declared with %d and %d ranks", in.Comm, prev, in.NRanks)
			}
			sizes[in.Comm] = in.NRanks
			members[in.Comm] = append(members[in.Comm], in)
		}
	}
	comms := make(map[uint64][]int, len(members))
	for id, ms := range members {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Rank < ms[j].Rank })
		ranks := make([]int, 0, len(ms))
		for i, m := range ms {
			if i > 0 && ms[i-1].Rank == m.Rank {
				return nil, nil, fmt.Errorf("collator: comm %#x rank %d claimed by global ranks %d and %d",
					id, m.Rank, ms[i-1].Global, m.Global)
			}
			ranks = append(ranks, m.Global)
		}
		comms[id] = ranks
	}
	return comms, sizes, nil
}

// validateCollectives checks that every matched collective call
// agrees across participants.
func validateCollectives(job *trace.Job) error {
	type seen struct {
		bytes  int64
		nranks int
		rank   int
	}
	calls := make(map[trace.CollKey]seen)
	for _, w := range job.Workers {
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind != trace.KindCollective || op.Coll.Seq < 0 {
				continue
			}
			k := trace.CollKeyOf(op)
			c := op.Coll
			prev, ok := calls[k]
			if !ok {
				calls[k] = seen{c.Bytes, c.NRanks, w.Rank}
				continue
			}
			if prev.bytes != c.Bytes {
				return fmt.Errorf("collator: %s comm %#x seq %d: rank %d sends %d bytes, rank %d sends %d",
					c.Op, c.CommID, c.Seq, prev.rank, prev.bytes, w.Rank, c.Bytes)
			}
			if prev.nranks != c.NRanks {
				return fmt.Errorf("collator: %s comm %#x seq %d: group size disagreement %d vs %d",
					c.Op, c.CommID, c.Seq, prev.nranks, c.NRanks)
			}
		}
	}
	return nil
}

// Signature computes a rolling hash over a worker's operation
// signatures. Two workers with equal signatures perform identical
// work modulo communicator identities — the deduplication criterion.
// Each op's signature bytes are length-prefixed before hashing, so
// the op boundaries are unambiguous: no splice of separator bytes
// inside one op's fields (e.g. an adversarial kernel name) can make a
// different op sequence hash to the same byte stream. Host time
// enters as one byte per op, and one for the tail, saying whether any
// was spent, never how much: measured durations differ between
// duplicates. The allocator's high-water mark and OOM flag close the
// hash, since a representative stands for its duplicates' memory too.
func Signature(w *trace.Worker) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(n uint64) {
		for j := 0; j < 8; j++ {
			h ^= n & 0xff
			h *= prime
			n >>= 8
		}
	}
	for i := range w.Ops {
		op := &w.Ops[i]
		h ^= gapByte(op.HostGap)
		h *= prime
		sig := op.SigString()
		word(uint64(len(sig)))
		for j := 0; j < len(sig); j++ {
			h ^= uint64(sig[j])
			h *= prime
		}
		h ^= 0x1f
		h *= prime
	}
	h ^= gapByte(w.TailGap)
	h *= prime
	word(uint64(w.PeakBytes))
	if w.OOM {
		h ^= 1
		h *= prime
	}
	return h
}

// gapByte is the byte Signature hashes for an op's host gap.
func gapByte(gap time.Duration) uint64 {
	if gap != 0 {
		return 1
	}
	return 0
}

// structuralSampleWindow bounds how many op positions structurallyEqual
// compares per worker pair: evenly spread across the stream, first and
// last included.
const structuralSampleWindow = 64

// structurallyEqual is the collision guard behind signature-based
// deduplication: two workers whose signatures match must also agree
// on op-stream length and on the op kinds at a deterministic sample
// of positions before they merge. A 64-bit rolling FNV makes
// accidental collisions vanishingly rare but not impossible (and
// adversarial kernel names can manufacture them), and merging two
// genuinely different workers would silently corrupt the simulated
// job.
func structurallyEqual(a, b *trace.Worker) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	n := len(a.Ops)
	if n == 0 {
		return true
	}
	step := 1
	if n > structuralSampleWindow {
		step = n / structuralSampleWindow
	}
	for i := 0; i < n; i += step {
		if a.Ops[i].Kind != b.Ops[i].Kind {
			return false
		}
	}
	return a.Ops[n-1].Kind == b.Ops[n-1].Kind
}

// DuplicateGroups clusters workers by signature, sub-partitioning any
// signature bucket whose members are not structurally equal (see
// structurallyEqual) so hash collisions cannot merge distinct
// workers. The returned map sends each representative (lowest rank of
// its group) to the ranks it stands for, representative included, in
// ascending order.
func DuplicateGroups(workers []*trace.Worker) map[int][]int {
	type subgroup struct {
		leader *trace.Worker
		ranks  []int
	}
	bySig := make(map[uint64][]*subgroup)
	for _, w := range workers {
		sig := Signature(w)
		subs := bySig[sig]
		placed := false
		for _, sg := range subs {
			if structurallyEqual(sg.leader, w) {
				sg.ranks = append(sg.ranks, w.Rank)
				placed = true
				break
			}
		}
		if !placed {
			bySig[sig] = append(subs, &subgroup{leader: w, ranks: []int{w.Rank}})
		}
	}
	groups := make(map[int][]int, len(bySig))
	for _, subs := range bySig {
		for _, sg := range subs {
			sort.Ints(sg.ranks)
			groups[sg.ranks[0]] = sg.ranks
		}
	}
	return groups
}

// Deduplicate returns only the representative workers of each
// duplicate group, preserving rank order, plus the group map.
func Deduplicate(workers []*trace.Worker) (unique []*trace.Worker, groups map[int][]int) {
	groups = DuplicateGroups(workers)
	reps := make(map[int]bool, len(groups))
	for rep := range groups {
		reps[rep] = true
	}
	for _, w := range workers {
		if reps[w.Rank] {
			unique = append(unique, w)
		}
	}
	sort.Slice(unique, func(i, j int) bool { return unique[i].Rank < unique[j].Rank })
	return unique, groups
}
