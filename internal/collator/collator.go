// Package collator reconstructs the distributed execution pattern
// from individual worker traces: it merges them into a job-level
// trace, learns communicator membership from ncclCommInitRank
// records, matches collective calls across workers by
// (communicator, sequence) keys, and validates that matched calls
// agree on payload and group size.
//
// It also implements Maya's dynamic worker deduplication: workers
// that do the same work, op for op, are redundant — in data-parallel
// training most workers are — and only one representative per group
// needs to be emulated further and simulated. A signature buckets
// them, and an exact compare decides.
package collator

import (
	"context"
	"fmt"
	"slices"
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

// Signature hashes what makes a worker's work the same as another's,
// the deduplication criterion. Per op it covers the kind and stream,
// whether host time was spent before the call (never how much:
// measured durations differ between duplicates), and for a collective
// its op, bytes and group size, for any other op its name, bytes and
// shape (dims, FLOPs, dtype). Communicator identity, event ids, Extra
// and MemKind are left out. The tail's host time, zero or not, the
// allocator's high-water mark and the OOM flag close the hash, since a
// representative stands for its duplicates' memory too. Equal
// signatures are a hint, not a verdict: DuplicateGroups merges two
// workers only when sameWork agrees.
func Signature(w *trace.Worker) uint64 {
	h := sigHash(offset64)
	for i := range w.Ops {
		op := &w.Ops[i]
		h.word(uint64(op.Kind) | gapBit(op.HostGap)<<8)
		h.word(uint64(op.Stream))
		if op.Kind == trace.KindCollective {
			c := op.Coll
			h.str(c.Op)
			h.word(uint64(c.Bytes))
			h.word(uint64(c.NRanks))
			continue
		}
		s := op.ShapeOrZero()
		h.str(op.Name)
		h.word(uint64(op.Bytes))
		h.word(uint64(s.FLOPs))
		h.str(s.DType)
		h.word(uint64(len(s.Dims)))
		for _, d := range s.Dims {
			h.word(uint64(d))
		}
	}
	h.word(gapBit(w.TailGap))
	h.word(uint64(w.PeakBytes))
	if w.OOM {
		h.word(1)
	}
	return uint64(h)
}

// sameWork reports whether a and b agree on every field Signature
// hashes, at every position: the exact test behind a merge.
func sameWork(a, b *trace.Worker) bool {
	if len(a.Ops) != len(b.Ops) || gapBit(a.TailGap) != gapBit(b.TailGap) ||
		a.PeakBytes != b.PeakBytes || a.OOM != b.OOM {
		return false
	}
	for i := range a.Ops {
		x, y := &a.Ops[i], &b.Ops[i]
		if x.Kind != y.Kind || x.Stream != y.Stream || gapBit(x.HostGap) != gapBit(y.HostGap) {
			return false
		}
		if x.Kind == trace.KindCollective {
			c, d := x.Coll, y.Coll
			if c.Op != d.Op || c.Bytes != d.Bytes || c.NRanks != d.NRanks {
				return false
			}
			continue
		}
		s, t := x.ShapeOrZero(), y.ShapeOrZero()
		if x.Name != y.Name || x.Bytes != y.Bytes ||
			s != t && (s.FLOPs != t.FLOPs || s.DType != t.DType || !slices.Equal(s.Dims, t.Dims)) {
			return false
		}
	}
	return true
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// sigHash is FNV-1a taken a word at a time: a word or a byte is one
// xor and one multiply.
type sigHash uint64

func (h *sigHash) word(v uint64) { *h = (*h ^ sigHash(v)) * prime64 }

// str hashes s's length, then its bytes.
func (h *sigHash) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// gapBit is what Signature hashes for a host gap: whether any host
// time was spent.
func gapBit(gap time.Duration) uint64 {
	if gap != 0 {
		return 1
	}
	return 0
}

// DuplicateGroups clusters workers that do the same work. The returned
// map sends each representative (lowest rank of its group) to the
// ranks it stands for, representative included, in ascending order.
func DuplicateGroups(workers []*trace.Worker) map[int][]int {
	return groupBy(workers, Signature)
}

// groupBy buckets workers by sig and splits every bucket by sameWork,
// so a hash collision never merges two workers.
func groupBy(workers []*trace.Worker, sig func(*trace.Worker) uint64) map[int][]int {
	type group struct {
		leader *trace.Worker
		ranks  []int
	}
	bySig := make(map[uint64][]*group)
	for _, w := range workers {
		h := sig(w)
		bucket := bySig[h]
		i := slices.IndexFunc(bucket, func(g *group) bool { return sameWork(g.leader, w) })
		if i < 0 {
			i = len(bucket)
			bySig[h] = append(bucket, &group{leader: w})
		}
		g := bySig[h][i]
		g.ranks = append(g.ranks, w.Rank)
	}
	out := make(map[int][]int, len(bySig))
	for _, bucket := range bySig {
		for _, g := range bucket {
			sort.Ints(g.ranks)
			out[g.ranks[0]] = g.ranks
		}
	}
	return out
}

// Deduplicate returns the representative of each duplicate group, in
// rank order.
func Deduplicate(workers []*trace.Worker) []*trace.Worker {
	groups := DuplicateGroups(workers)
	var unique []*trace.Worker
	for _, w := range workers {
		if _, rep := groups[w.Rank]; rep {
			unique = append(unique, w)
		}
	}
	sort.Slice(unique, func(i, j int) bool { return unique[i].Rank < unique[j].Rank })
	return unique
}
