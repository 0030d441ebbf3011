package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/search"
	"maya/internal/workload"
)

// pinnedSearch is one algorithm's recorded outcome.
type pinnedSearch struct {
	best     search.Knobs
	iterTime time.Duration
	mfuBits  uint64
	stats    search.Stats
	history  uint64 // historyHash of the outcome
}

// historyHash is FNV-64a over every trial of the history, in order:
// knobs, status, OOM, iteration time and MFU bits.
func historyHash(h []*search.Result) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		f.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, r := range h {
		k := r.Knobs
		for _, v := range []int{k.TP, k.PP, k.MicroMult, k.VirtualStages} {
			put(uint64(v))
		}
		put(flag(k.ActRecompute)<<2 | flag(k.SeqParallel)<<1 | flag(k.DistOptimizer))
		put(uint64(r.Status))
		put(flag(r.OOM))
		put(uint64(r.IterTime))
		put(math.Float64bits(r.MFU))
	}
	return f.Sum64()
}

// pinnedSearches was recorded with the route below; a change to any
// search shortcut, the engine, the capture or the oracle that moves a
// trial shows here.
var pinnedSearches = map[string]pinnedSearch{
	"cma": {search.Knobs{TP: 1, PP: 1, MicroMult: 2, VirtualStages: 1, ActRecompute: true, DistOptimizer: true}, 25613069464, 0x3fda2bac7a8cec5b,
		search.Stats{Executed: 12, Invalid: 10, Verdict: 1, Dominated: 1, SkippedByTactic: map[string]int{}}, 0xe6d0cd2daa9b2ab2},
	"random": {search.Knobs{TP: 4, PP: 1, MicroMult: 4, VirtualStages: 2, ActRecompute: true, SeqParallel: true}, 26168069127, 0x3fd99d948090d36a,
		search.Stats{Executed: 6, Invalid: 14, Verdict: 4, SkippedByTactic: map[string]int{}}, 0xe1ff819233214d7},
	"grid": {search.Knobs{TP: 1, PP: 1, MicroMult: 1, VirtualStages: 1, ActRecompute: true, DistOptimizer: true}, 25450662629, 0x3fda566d0d4726f2,
		search.Stats{Executed: 6, Verdict: 18, SkippedByTactic: map[string]int{}}, 0x19307e1868d1048d},
	"oneplusone": {search.Knobs{TP: 1, PP: 1, MicroMult: 2, VirtualStages: 2, ActRecompute: true, DistOptimizer: true}, 25613069464, 0x3fda2bac7a8cec5b,
		search.Stats{Executed: 8, Invalid: 13, Verdict: 3, SkippedByTactic: map[string]int{}}, 0xdb50ce541b2d0b99},
	"pso": {search.Knobs{TP: 1, PP: 2, MicroMult: 8, VirtualStages: 1, ActRecompute: true, SeqParallel: true}, 28012391107, 0x3fd7edd50ebdc456,
		search.Stats{Executed: 4, Cached: 2, Invalid: 10, Verdict: 8, SkippedByTactic: map[string]int{}}, 0x69e30d2ab6c72ee3},
	"twopointsde": {search.Knobs{TP: 4, PP: 1, MicroMult: 1, VirtualStages: 4, ActRecompute: true, DistOptimizer: true}, 27464060937, 0x3fd868230369573d,
		search.Stats{Executed: 4, Cached: 1, Invalid: 15, Verdict: 4, SkippedByTactic: map[string]int{}}, 0x6e9c70f7ad34265c},
}

// TestSearchOutcomesPinned runs one fixed-budget search per algorithm
// on the route maya.Predictor.FindRecipe takes — oracle-priced, so no
// suite trains, with captures memoized as a capture cache would — and
// checks each outcome against the recorded table: the best recipe
// (knobs, iteration time, MFU bits), every Stats counter, and a hash
// of the whole history.
func TestSearchOutcomesPinned(t *testing.T) {
	ctx := context.Background()
	cluster := hardware.DGXV100(1)
	p := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	captures := NewMemo[string, *Capture](1 << 10)
	capture := func(ctx context.Context, w workload.Workload) (*Capture, error) {
		c, _, err := captures.Get(ctx, w.(workload.Fingerprinter).Fingerprint(), func() (*Capture, error) {
			c, err := p.Capture(ctx, w)
			if err == nil {
				c.Keep()
			}
			return c, err
		})
		return c, err
	}
	problem := search.Problem{Model: models.GPT3_2_7B(), Cluster: cluster, GlobalBatch: 64}
	for _, alg := range []string{"cma", "random", "grid", "oneplusone", "pso", "twopointsde"} {
		opts := search.Options{Algorithm: alg, Budget: 24, Seed: 7, EarlyStopWindow: -1}
		out, err := p.Search(ctx, problem, capture, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		want := pinnedSearches[alg]
		if b := out.Best; b.Knobs != want.best || b.IterTime != want.iterTime || math.Float64bits(b.MFU) != want.mfuBits {
			t.Errorf("%s: best %v, %d ns, MFU bits %#x; want %v, %d ns, %#x",
				alg, b.Knobs, int64(b.IterTime), math.Float64bits(b.MFU), want.best, int64(want.iterTime), want.mfuBits)
		}
		if !reflect.DeepEqual(out.Stats, want.stats) {
			t.Errorf("%s: stats %+v, want %+v", alg, out.Stats, want.stats)
		}
		if got := historyHash(out.History); got != want.history {
			t.Errorf("%s: history hash %#x, want %#x", alg, got, want.history)
		}
	}
}
