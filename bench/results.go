package main

import (
	"math"
	"sort"
	"time"

	"maya"
	"maya/internal/prand"
)

// hashReport fingerprints everything simulated in a report: times,
// memory, verdict flags, MFU bits and the recovery outcome. Host-side
// stage timings are excluded; they are wall-clock, not answers.
func hashReport(r *maya.Report) uint64 {
	h := prand.HashInts(0,
		int64(r.IterTime), int64(r.CommTime), int64(r.ExposedComm),
		r.PeakMemBytes, bit(r.OOM), bit(r.Truncated), fbits(r.MFU),
		int64(r.UniqueWorkers), int64(r.TotalWorkers))
	if rec := r.Recovery; rec != nil {
		h = prand.HashInts(h, fbits(rec.Goodput), int64(rec.TotalTime), int64(rec.LostWork),
			int64(rec.SurvivorIdle), int64(rec.Iterations))
	}
	if r.Stalls != nil {
		t := r.Stalls.Total()
		h = prand.HashInts(h, int64(t.EventWait), int64(t.CollectiveWait), int64(t.HostBound),
			int64(t.Bubble), int64(t.Busy))
	}
	return h
}

// hashOutcome fingerprints a search: the best recipe and the trial
// accounting, which must repeat exactly for any Parallel.
func hashOutcome(o *maya.SearchOutcome) uint64 {
	var h uint64
	if b := o.Best; b != nil {
		k := b.Knobs
		h = prand.HashInts(h, int64(k.TP), int64(k.PP), int64(k.MicroMult), int64(k.VirtualStages),
			bit(k.ActRecompute), bit(k.SeqParallel), bit(k.DistOptimizer),
			int64(b.IterTime), fbits(b.MFU), b.PeakMem)
	}
	s := o.Stats
	h = prand.HashInts(h, int64(s.Executed), int64(s.Cached), int64(s.Skipped),
		int64(s.Invalid), int64(s.Verdict), int64(s.Dominated), int64(len(o.History)))
	tactics := make([]string, 0, len(s.SkippedByTactic))
	for t := range s.SkippedByTactic {
		tactics = append(tactics, t)
	}
	sort.Strings(tactics)
	for _, t := range tactics {
		h = prand.HashInts(h, int64(prand.Hash64(t)), int64(s.SkippedByTactic[t]))
	}
	return h
}

// hashAll combines per-item fingerprints in order.
func hashAll(hs []uint64) uint64 {
	var h uint64
	for _, x := range hs {
		h = prand.HashInts(h, int64(x))
	}
	return h
}

// errPct is |predicted − actual| / actual in percent.
func errPct(predicted, actual time.Duration) float64 {
	return 100 * math.Abs(float64(predicted-actual)) / float64(actual)
}

// predErrCeilingPct fails a run whose mean prediction error against
// the silicon oracle exceeds it: a fast wrong answer is not a result.
const predErrCeilingPct = 10
