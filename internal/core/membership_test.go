package core

import (
	"context"
	"testing"

	"maya/internal/collator"
	"maya/internal/cuda"
	"maya/internal/hardware"
	"maya/internal/nccl"
)

// commInits is a workload whose only work is joining one communicator:
// rank r calls ncclCommInitRank with size commInits[r][0] and
// communicator rank commInits[r][1].
type commInits [][2]int

func (w commInits) Name() string { return "comm-inits" }
func (w commInits) World() int   { return len(w) }
func (w commInits) Run(rank int, dev cuda.Device) error {
	_, err := nccl.CommInitRank(dev, w[rank][0], w[rank][1], 7)
	return err
}

// TestCaptureKeepsMembershipErrors pins that a capture rejects the
// traces the collator rejects: ranks that disagree on a communicator's
// size, or claim one communicator rank twice, fail Capture with the
// error collator.Collate gives for every rank's trace, with dedup off
// and on the probe → dedup route alike.
func TestCaptureKeepsMembershipErrors(t *testing.T) {
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	for name, w := range map[string]commInits{
		"sizes-disagree": {{2, 0}, {3, 1}},
		"rank-claimed":   {{2, 0}, {2, 0}},
	} {
		workers, _, _, err := oraclePipeline(cluster, Options{}).emulateRanks(ctx, w, allRanks(w.World()), nil, true)
		if err != nil {
			t.Fatalf("%s: emulating: %v", name, err)
		}
		_, want := collator.Collate(ctx, workers, collator.Options{})
		if want == nil {
			t.Fatalf("%s: the collator accepts the traces", name)
		}
		for route, opts := range map[string]Options{"no-dedup": {NoDedup: true}, "dedup": {}} {
			_, err := oraclePipeline(cluster, opts).Capture(ctx, w)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s, %s: Capture gave %v, want %v", name, route, err, want)
			}
		}
	}
}
