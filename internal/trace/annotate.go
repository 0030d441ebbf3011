package trace

import (
	"context"
	"time"
)

// Timer prices device work: the learned estimator suite and the
// silicon ground truth both are one, and Annotate is indifferent to
// which it walks a job with. ranks is the collective's resolved global
// rank list, which a timer must not modify; nranks its declared group
// size, for timers that extrapolate when the list is shorter.
type Timer interface {
	EstimateKernel(op *Op) time.Duration
	EstimateCollective(op string, bytes int64, ranks []int, nranks int) time.Duration
}

// Annotate is the one walk that assigns durations: every kernel,
// memcpy, memset and matched collective of the job is priced by t and
// written into the overlay the simulator reads, which must be bound to
// this job; the job itself stays immutable. Ops the walk does not
// price — events, syncs, markers, unmatched collectives — keep what
// the overlay holds for them, zero unless written. RankResolver
// says what comms and sizes are. Cancellation of ctx is observed
// between workers, leaving the overlay partially filled.
func Annotate(ctx context.Context, job *Job, comms map[uint64][]int, sizes map[uint64]int, t Timer, ann *Annotations) error {
	ranks := RankResolver(job, comms, sizes)
	for wi, w := range job.Workers {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := range w.Ops {
			op := &w.Ops[i]
			var d time.Duration
			switch op.Kind {
			case KindKernel, KindMemcpy, KindMemset:
				d = t.EstimateKernel(op)
			case KindCollective:
				if op.Coll.Seq < 0 {
					continue
				}
				d = t.EstimateCollective(op.Coll.Op, op.Coll.Bytes, ranks(w, op.Coll), op.Coll.NRanks)
			default:
				continue
			}
			ann.Set(wi, i, d)
		}
	}
	return nil
}

// RankResolver returns the job's one answer to "which global ranks
// does this collective span": the communicator's recorded membership,
// completed by stride when deduplication left it partial (ExpandRanks),
// and — when the communicator has no recorded membership at all, which
// a loaded trace may not — extrapolated from the calling worker's own
// rank and the call's declared group size.
//
// The resolver works each list out once: every call of a communicator
// gets the same slice, and every call of a communicator with no
// recorded membership the same slice per (calling rank, group size).
// Callers only read the lists. The resolver is not safe for concurrent
// use.
func RankResolver(job *Job, comms map[uint64][]int, sizes map[uint64]int) func(w *Worker, c *Collective) []int {
	world := 0
	for _, w := range job.Workers {
		world = max(world, w.World)
	}
	type caller struct{ rank, size int }
	byComm := map[uint64][]int{} // nil for a communicator with no recorded membership
	byCaller := map[caller][]int{}
	return func(w *Worker, c *Collective) []int {
		ranks, ok := byComm[c.CommID]
		if !ok {
			ranks = ExpandRanks(comms[c.CommID], sizes[c.CommID], world)
			byComm[c.CommID] = ranks
		}
		if len(ranks) > 0 {
			return ranks
		}
		k := caller{w.Rank, c.NRanks}
		if ranks, ok = byCaller[k]; !ok {
			ranks = ExpandRanks([]int{w.Rank}, c.NRanks, world)
			byCaller[k] = ranks
		}
		return ranks
	}
}
