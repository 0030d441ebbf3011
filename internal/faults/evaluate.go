package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"maya/internal/prand"
	"maya/internal/sim"
	"maya/internal/trace"
)

// ErrDiverged reports a walk that exhausted its restart budget:
// failures arrive faster than recovery completes, so the scenario
// never reaches its final iteration. For grid sweeps (fig18) this is
// a data point — goodput is effectively zero — not a malfunction;
// test with errors.Is.
var ErrDiverged = errors.New("faults: scenario diverged")

// Runner executes one engine run of the scenario's job with the given
// injection and observer attached (nil inj means fault-free, nil obs
// means unobserved). Evaluate calls it for the clean baseline and
// once per failure to price the wedge, always with a nil observer: a
// wedge run's Report.Wedged says where each survivor stalled. The
// caller binds it to whatever engine strategy it uses (fresh,
// scratch-owned or pooled).
type Runner func(ctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error)

// maxRestartsDefault bounds recovery attempts when the plan doesn't.
const maxRestartsDefault = 1000

// pendingFailure is the next death from either failure source.
type pendingFailure struct {
	rank            int
	at              int64
	detect, restore int64
	fromMTBF        bool
}

// Evaluate walks the plan over the job's iteration structure and
// prices it into a RecoveryReport.
//
// The model is a renewal walk on the scenario wall clock. The
// perturbed report (the caller's straggler-injected run of the full
// trace; the plain run when the plan has no stragglers) supplies the
// iteration boundaries and per-iteration durations; iterations beyond
// the trace replay at its steady-state rate. Checkpoints commit after
// every CheckpointEvery-th iteration at CheckpointCost each. A death
// — explicit or drawn from the seeded MTBF process — costs its
// detection timeout plus a checkpoint restore, then rewinds the walk
// to the last committed iteration; the work since that commit is
// lost and redone. Each death is also injected into a real engine run
// at the trace position it interrupts, and the resulting wedge
// (which survivors stalled, from when) prices SurvivorIdle exactly
// rather than assuming the whole world idles.
//
// Everything derives from the plan's seed and simulated durations:
// two Evaluate calls with equal inputs return equal reports, bit for
// bit, regardless of engine pooling or caller concurrency.
func Evaluate(ctx context.Context, plan *Plan, job *trace.Job, perturbed *sim.Report, run Runner) (*sim.RecoveryReport, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	iterEnds := perturbed.IterEnds()
	if len(iterEnds) == 0 {
		return nil, fmt.Errorf("faults: trace has no %q marks; fault scenarios need iteration boundaries", trace.MarkIterEnd)
	}
	L := len(iterEnds)
	n := plan.Iterations
	if n == 0 {
		n = L
	}

	// Trace-time boundaries: bound[0] is setup end, bound[i] the end
	// of iteration i-1. Iterations beyond the trace replay the
	// steady-state rate.
	bound := make([]int64, L+1)
	bound[0] = int64(perturbed.SetupEnd())
	for i, e := range iterEnds {
		bound[i+1] = int64(e)
	}
	steady := int64(perturbed.IterTime())
	iterDur := func(i int) int64 {
		if i < L {
			return bound[i+1] - bound[i]
		}
		return steady
	}

	byRank := make(map[int]int, len(job.Workers))
	for _, wk := range job.Workers {
		byRank[wk.Rank] = len(byRank)
	}
	expl := plan.sortedFailures()
	for _, f := range expl {
		if _, ok := byRank[f.Rank]; !ok {
			return nil, fmt.Errorf("faults: failure targets rank %d absent from job (deduplicated capture? re-capture with dedup disabled)", f.Rank)
		}
	}

	baseInj, err := plan.Injection(job)
	if err != nil {
		return nil, err
	}
	clean := perturbed
	if baseInj != nil {
		if clean, err = run(ctx, nil, nil); err != nil {
			return nil, fmt.Errorf("faults: clean baseline: %w", err)
		}
	}
	cleanTime, err := horizonTime(clean, n)
	if err != nil {
		return nil, err
	}
	perturbedTime, err := horizonTime(perturbed, n)
	if err != nil {
		return nil, err
	}

	// Failure sources: the explicit list in death order, merged with
	// seeded Poisson arrivals. Both are consumed strictly in arrival
	// order, so the walk is a deterministic function of the plan.
	ei := 0
	rng := prand.New(plan.Seed)
	mtbf := int64(plan.MTBF)
	wall := bound[0]
	mtbfAt := int64(-1)
	gap := func() int64 {
		g := int64(-float64(mtbf) * math.Log(1-rng.Float64()))
		return max(g, 1)
	}
	if mtbf > 0 {
		mtbfAt = wall + gap()
	}
	arrival := 0
	peek := func() (pendingFailure, bool) {
		var best pendingFailure
		best.at = -1
		if ei < len(expl) {
			f := expl[ei]
			best = pendingFailure{rank: f.Rank, at: int64(f.At),
				detect: int64(f.Detect), restore: int64(f.Restore)}
		}
		if mtbfAt >= 0 && (best.at < 0 || mtbfAt < best.at) {
			h := prand.HashInts(plan.Seed, int64(arrival))
			victim := job.Workers[h%uint64(len(job.Workers))].Rank
			best = pendingFailure{rank: victim, at: mtbfAt, fromMTBF: true}
		}
		if best.at < 0 {
			return pendingFailure{}, false
		}
		if best.detect == 0 {
			best.detect = int64(plan.Detect)
		}
		if best.restore == 0 {
			best.restore = int64(plan.Restore)
		}
		return best, true
	}
	consume := func(f pendingFailure) {
		if f.fromMTBF {
			arrival++
			mtbfAt += gap()
		} else {
			ei++
		}
	}

	maxRestarts := plan.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = maxRestartsDefault
	}

	rep := &sim.RecoveryReport{
		World:           len(job.Workers),
		Iterations:      n,
		CheckpointEvery: plan.CheckpointEvery,
		CleanTime:       cleanTime,
		PerturbedTime:   perturbedTime,
	}
	committed := 0 // iterations durably checkpointed
	anchor := wall // wall time the committed state was reached
	i := 0         // next iteration to run
	rate := 1.0    // iteration-time multiplier from resizes
	world := len(job.Workers)
	attempts := 0
	resized := make([]bool, len(plan.Resizes))

	// fail rewinds the walk for a death at effAt interrupting the
	// walk with the trace position traceAt.
	fail := func(f pendingFailure, effAt, traceAt int64) error {
		attempts++
		if attempts > maxRestarts {
			return fmt.Errorf("%w: %d restarts exhausted (MTBF shorter than recovery time?)", ErrDiverged, maxRestarts)
		}
		inj := &sim.Injection{FailStop: &sim.FailStopAt{Worker: byRank[f.rank], At: traceAt}}
		if baseInj != nil {
			inj.Slowdown = baseInj.Slowdown
		}
		wedge, err := run(ctx, inj, nil)
		if err != nil {
			return fmt.Errorf("faults: wedge run for rank %d at %v: %w", f.rank, time.Duration(traceAt), err)
		}
		detectEnd := traceAt + f.detect
		var idle int64
		wedged := 0
		for w, at := range wedge.Wedged {
			if w == byRank[f.rank] {
				continue
			}
			if at >= 0 {
				wedged++
				if detectEnd > at {
					idle += detectEnd - at
				}
			}
		}
		lost := effAt - anchor
		rep.Failures = append(rep.Failures, sim.FailureRecovery{
			Rank:          f.rank,
			At:            time.Duration(effAt),
			TraceAt:       time.Duration(traceAt),
			Detection:     time.Duration(f.detect),
			Restore:       time.Duration(f.restore),
			LostWork:      time.Duration(lost),
			SurvivorIdle:  time.Duration(idle),
			WedgedWorkers: wedged,
		})
		rep.LostWork += time.Duration(lost)
		rep.Redo += time.Duration(lost)
		rep.Detection += time.Duration(f.detect)
		rep.Restore += time.Duration(f.restore)
		rep.SurvivorIdle += time.Duration(idle)
		wall = effAt + f.detect + f.restore
		anchor = wall
		i = committed
		return nil
	}

	// traceBoundary maps completed-iteration count c to trace time,
	// clamping past-trace positions into the final trace iteration.
	traceBoundary := func(c int) int64 { return bound[min(c, L)] }

	for i < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Resizes take effect at their iteration boundary, once:
		// world changes are physical and survive rewinds.
		for ri := range plan.Resizes {
			rz := &plan.Resizes[ri]
			if resized[ri] || rz.AtIteration > i {
				continue
			}
			resized[ri] = true
			cost := int64(rz.Base)
			if rz.StateBytes > 0 {
				cost += int64(float64(rz.StateBytes) / rz.BWGBps)
			}
			rep.Resizes = append(rep.Resizes, sim.ResizeRecovery{
				AtIteration: i,
				OldWorld:    world,
				NewWorld:    rz.NewWorld,
				Reshard:     time.Duration(cost),
			})
			rep.Reshard += time.Duration(cost)
			wall += cost
			rate *= float64(world) / float64(rz.NewWorld)
			world = rz.NewWorld
		}

		d := max(int64(float64(iterDur(i))*rate), 1)
		if f, ok := peek(); ok {
			effAt := max(f.at, wall)
			if effAt < wall+d {
				// Death mid-iteration: map the interrupted fraction
				// into trace time (clamped to the last trace
				// iteration for beyond-trace replay).
				consume(f)
				ti := min(i, L-1)
				frac := float64(effAt-wall) / float64(d)
				traceAt := bound[ti] + int64(frac*float64(bound[ti+1]-bound[ti]))
				if err := fail(f, effAt, traceAt); err != nil {
					return nil, err
				}
				continue
			}
		}
		wall += d
		i++

		if plan.CheckpointEvery > 0 && i%plan.CheckpointEvery == 0 && i < n {
			c := int64(plan.CheckpointCost)
			if f, ok := peek(); ok {
				effAt := max(f.at, wall)
				if effAt < wall+c {
					// Death during the checkpoint write: the commit
					// never lands, so the rewind goes to the previous
					// checkpoint.
					consume(f)
					if err := fail(f, effAt, traceBoundary(i)); err != nil {
						return nil, err
					}
					continue
				}
			}
			wall += c
			committed = i
			anchor = wall
			rep.Checkpoints++
			rep.CheckpointOverhead += time.Duration(c)
		}
	}

	rep.TotalTime = time.Duration(wall)
	if wall > 0 {
		rep.Goodput = float64(rep.CleanTime) / float64(wall)
	}
	return rep, nil
}

// horizonTime is the wall time for n iterations of a report's
// schedule: the trace's own boundary when n fits, extended at the
// steady-state rate beyond it.
func horizonTime(r *sim.Report, n int) (time.Duration, error) {
	ends := r.IterEnds()
	if len(ends) == 0 {
		return 0, fmt.Errorf("faults: baseline run has no %q marks", trace.MarkIterEnd)
	}
	if n <= len(ends) {
		return ends[n-1], nil
	}
	return ends[len(ends)-1] + time.Duration(n-len(ends))*r.IterTime(), nil
}
