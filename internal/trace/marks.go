package trace

// Well-known Mark labels the framework emits and the simulator's
// report interprets.
const (
	// MarkSetupEnd separates one-time initialization (weight
	// allocation, communicator setup) from the training loop.
	MarkSetupEnd = "setup_end"
	// MarkIterEnd is emitted after each training iteration, following
	// a device synchronization, so mark times are iteration
	// boundaries.
	MarkIterEnd = "iter_end"
)

// CollKey is the global matching identity of one collective call:
// all participants of the same call produce the same key. For
// point-to-point operations the key is directional (src, dst) and Seq
// is the program's matching tag, which need not follow issue order:
// under interleaved or dualpipe schedules a direction's k-th send and
// k-th receive can carry different tags. For group collectives Seq is
// the per-communicator call index and Src/Dst are unused.
type CollKey struct {
	Comm uint64
	P2P  bool
	Src  int // P2P source rank within the communicator
	Dst  int // P2P destination rank within the communicator
	Seq  int
}

// CollKeyOf derives the matching key for a collective op. It panics
// if the op is not a collective; callers dispatch on Kind first.
func CollKeyOf(op *Op) CollKey {
	c := op.Coll
	switch c.Op {
	case "ncclSend":
		return CollKey{Comm: c.CommID, P2P: true, Src: c.Rank, Dst: c.Peer, Seq: c.Seq}
	case "ncclRecv":
		return CollKey{Comm: c.CommID, P2P: true, Src: c.Peer, Dst: c.Rank, Seq: c.Seq}
	default:
		return CollKey{Comm: c.CommID, Seq: c.Seq}
	}
}

// ExpandRanks completes a partially known communicator membership of
// the given size by extending the observed stride, defaulting to a
// world/size stride when only one member is known. Deduplicated jobs
// carry partial membership; Megatron process groups have uniform
// stride, so extension recovers the true topology.
func ExpandRanks(known []int, size, world int) []int {
	if size <= 0 {
		size = len(known)
	}
	if len(known) >= size {
		return known
	}
	if len(known) == 0 {
		return nil
	}
	stride := 1
	if len(known) >= 2 {
		stride = known[1] - known[0]
		if stride <= 0 {
			stride = 1
		}
	} else if size > 0 && world > size {
		stride = world / size
	}
	out := make([]int, size)
	for i := range out {
		r := known[0] + i*stride
		if world > 0 {
			r %= world
		}
		out[i] = r
	}
	return out
}

// Participation counts, for every collective call in the job, how
// many of the *present* workers will join it. When the collator
// simulates only deduplicated unique workers, collectives that span
// terminated duplicates must not wait for them; the simulator uses
// these counts instead of the communicator size.
func Participation(j *Job) map[CollKey]int {
	m := make(map[CollKey]int)
	for _, w := range j.Workers {
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind != KindCollective || op.Coll.Seq < 0 {
				continue
			}
			m[CollKeyOf(op)]++
		}
	}
	return m
}
