package search

import (
	"context"
	"fmt"
	"sort"
	"time"

	"maya/internal/framework"
	"maya/internal/pool"
	"maya/internal/prand"
)

// EvalResult is what the evaluator (Maya's pipeline, or ground truth
// in oracle studies) reports for one recipe.
type EvalResult struct {
	OOM      bool
	IterTime time.Duration
	MFU      float64
	PeakMem  int64
	// Verdict marks an OOM resolved straight off the capture's
	// peak-memory verdict, without plan resolution or simulation —
	// the search accounts it separately from full executions.
	Verdict bool
	// Truncated marks a trial abandoned at the domination bound: the
	// simulation proved iteration time exceeds the bound and stopped.
	// Timing fields are not meaningful; the search records the trial
	// as dominated.
	Truncated bool
}

// Evaluator runs one trial. bound is the generation's domination
// bound (zero means none): an evaluator that can prove the recipe's
// iteration time exceeds bound may abandon the trial early and return
// Truncated instead of a full result. Implementations must be safe
// for concurrent use; Maya's pipeline is. The evaluator receives the
// search's ctx and should abort promptly once it is cancelled.
type Evaluator func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (EvalResult, error)

// WorkerFactory builds one evaluator per search worker. The search
// calls it once per worker index, before the first generation that
// needs that worker, one call at a time, and runs every trial of
// worker w on evaluator w, so
// the evaluator may own per-worker scratch (a persistent simulation
// engine) without any locking. The
// returned evaluators need not be safe for concurrent use with each
// other's state, but must produce identical results for identical
// (cfg, bound) inputs regardless of which worker runs the trial —
// search determinism rests on that.
type WorkerFactory func(worker int) Evaluator

// Status classifies how a trial was resolved (Fig. 15).
type Status int

// Trial statuses.
const (
	// StatusExecuted trials ran the full emulation pipeline.
	StatusExecuted Status = iota
	// StatusCached trials repeated an already-evaluated point.
	StatusCached
	// StatusSkipped trials were resolved by a pruning tactic.
	StatusSkipped
	// StatusInvalid points violate structural constraints.
	StatusInvalid
	// StatusVerdict trials OOMed at capture time: the verdict came
	// straight off the emulator's memory accounting, with no plan
	// resolution or simulation.
	StatusVerdict
	// StatusDominated trials were abandoned mid-simulation once their
	// iteration time provably exceeded the generation's domination
	// bound.
	StatusDominated
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusExecuted:
		return "executed"
	case StatusCached:
		return "cached"
	case StatusSkipped:
		return "skipped"
	case StatusVerdict:
		return "verdict"
	case StatusDominated:
		return "dominated"
	default:
		return "invalid"
	}
}

// Result is one resolved trial.
type Result struct {
	Knobs   Knobs
	Config  framework.MegatronConfig
	Status  Status
	Invalid bool
	OOM     bool
	// Dominated marks a trial abandoned at the domination bound; its
	// IterTime/MFU are zero and pruning tactics must not transfer
	// runtimes from it.
	Dominated bool
	IterTime  time.Duration
	MFU       float64
	PeakMem   int64
	Tactic    string // pruning tactic that resolved a skipped trial
}

// population is the generation size the optimizers are asked for, a
// search hyperparameter decoupled from Options.Parallel so that adding
// workers never changes what the search explores. The cma, pso and
// twopointsde optimizers raise it to their own minimum (9, 10 and 12
// over the Megatron space).
const population = 8

// Options configures a search run.
type Options struct {
	// Algorithm: "cma" (default), "random", "grid", "oneplusone",
	// "pso", "twopointsde".
	Algorithm string
	// Budget is the maximum number of sampled points (default 2000).
	Budget int
	// Parallel is the number of concurrent trials (default 8; negative
	// is an error). It is purely an execution resource: outcomes are
	// bit-identical for any Parallel value.
	Parallel int
	// Seed drives the optimizer's randomness.
	Seed uint64
	// DisablePruning turns the Table-10 tactics off (ablation).
	DisablePruning bool
	// EarlyStopWindow stops the search when the top-5 MFU set is
	// unchanged for this many consecutive freshly-resolved non-OOM
	// trials — executed, tactic-skipped or dominated (default 20;
	// negative disables). Cached repeats of old points do not advance
	// the window: revisiting history is optimizer stagnation, not
	// evidence the frontier has settled.
	EarlyStopWindow int
	// DominationSlack scales the per-generation domination bound:
	// a trial is abandoned once its simulated clock provably exceeds
	// slack x the best completed-generation iteration time. Zero means
	// the default 1.5; negative disables domination abort. The bound
	// is fixed per generation from fully-completed generations only,
	// so outcomes are bit-identical for any Parallel value. Because
	// the bound always exceeds the incumbent best, no potentially
	// optimal trial is ever truncated.
	DominationSlack float64
	// DisableVerdictFastPath makes evaluators simulate capture-OOM
	// trials instead of returning the capture verdict directly (the
	// Fig. 15 ablation). Only consulted by evaluators; the search loop
	// itself just accounts verdicts separately.
	DisableVerdictFastPath bool
}

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = "cma"
	}
	if o.Budget == 0 {
		o.Budget = 2000
	}
	if o.Parallel == 0 {
		o.Parallel = 8
	}
	if o.EarlyStopWindow == 0 {
		o.EarlyStopWindow = 20
	}
	return o
}

// domSlack resolves the effective domination slack (0 disabled).
func (o Options) domSlack() float64 {
	switch {
	case o.DominationSlack < 0:
		return 0
	case o.DominationSlack == 0:
		return 1.5
	default:
		return o.DominationSlack
	}
}

// ProgressPoint records best-so-far quality against search effort —
// the Fig. 16 trajectories.
type ProgressPoint struct {
	UniqueValid int
	BestMFU     float64
	BestIter    time.Duration
}

// Stats aggregates trial accounting.
type Stats struct {
	Executed int
	Cached   int
	Skipped  int
	Invalid  int
	// Verdict counts trials resolved by the capture-time OOM verdict
	// alone (no simulation). In ablation mode these land in Executed
	// instead; Executed+Verdict is invariant.
	Verdict int
	// Dominated counts trials abandoned at the domination bound.
	Dominated int
	// SkippedByTactic breaks skips down per pruning rule.
	SkippedByTactic map[string]int
}

// Outcome is a completed search.
type Outcome struct {
	Best       *Result
	Stats      Stats
	History    []*Result
	Trajectory []ProgressPoint
	Elapsed    time.Duration
	Stopped    string // why the search ended
}

// Run executes a configuration search for the problem with one shared
// evaluator. It is RunWorkers with a constant factory; see there for
// the loop's semantics.
func Run(ctx context.Context, p Problem, eval Evaluator, opts Options) (*Outcome, error) {
	return RunWorkers(ctx, p, func(int) Evaluator { return eval }, opts)
}

// RunWorkers executes a configuration search for the problem with up
// to Options.Parallel trials in flight per generation (one pool.Each
// over the generation's unresolved candidates), worker index w always
// evaluating on the evaluator factory(w) returned (worker-affine
// evaluation: per-worker scratch stays hot across trials, nothing is
// re-acquired per trial). Trial results are reduced in canonical
// generation order, and the domination bound is fixed per generation
// from completed generations only, so the Outcome is bit-identical
// for any Parallel value and any goroutine schedule.
//
// Cancelling ctx stops the trial loop: no further generations are
// issued, the in-flight trials abort through their own ctx
// observation, and RunWorkers returns the partial outcome (Stopped ==
// "cancelled") alongside ctx.Err().
func RunWorkers(ctx context.Context, p Problem, factory WorkerFactory, opts Options) (*Outcome, error) {
	opts = opts.withDefaults()
	if opts.Parallel < 0 {
		return nil, fmt.Errorf("search: Parallel %d is negative", opts.Parallel)
	}
	space := MegatronSpace()
	opt, err := newOptimizer(opts.Algorithm, space, population, prand.HashInts(opts.Seed, 0x5ea4c4))
	if err != nil {
		return nil, err
	}
	tactics := MegatronTactics()
	if opts.DisablePruning {
		tactics = nil
	}

	// Evaluators are built as trials need them: never more than
	// Parallel, nor more than one generation's unresolved trials.
	var evals []Evaluator

	h := newHistory()
	out := &Outcome{Stats: Stats{SkippedByTactic: make(map[string]int)}}
	start := time.Now()

	sampled := 0
	uniqueValid := 0
	stable := 0
	var lastTop []float64

	for sampled < opts.Budget {
		if ctx.Err() != nil {
			out.Stopped = "cancelled"
			break
		}
		gen := opt.generation()
		if len(gen) == 0 {
			out.Stopped = "space exhausted"
			break
		}
		if sampled+len(gen) > opts.Budget {
			gen = gen[:opts.Budget-sampled]
		}
		sampled += len(gen)

		// The domination bound is fixed before the generation runs,
		// from the best of fully-completed generations — a value every
		// goroutine schedule agrees on.
		var bound time.Duration
		if slack := opts.domSlack(); slack > 0 && out.Best != nil {
			bound = time.Duration(float64(out.Best.IterTime) * slack)
		}

		results := make([]*Result, len(gen))
		needEval := make([]int, 0, len(gen))

		// Resolve each candidate: invalid, cached, pruned or to-run.
		for i, x := range gen {
			k := space.FromVector(x)
			if prev, ok := h.get(k); ok {
				c := *prev
				c.Status = StatusCached
				results[i] = &c
				out.Stats.Cached++
				continue
			}
			cfg, ok := p.Build(k)
			if !ok {
				r := &Result{Knobs: k, Status: StatusInvalid, Invalid: true}
				results[i] = r
				h.put(r)
				out.Stats.Invalid++
				continue
			}
			if d, tac, ok := applyTactics(tactics, k, h); ok {
				r := &Result{
					Knobs: k, Config: cfg, Status: StatusSkipped,
					OOM: d.oom, IterTime: d.iterTime, MFU: d.mfu, Tactic: tac,
				}
				results[i] = r
				h.put(r)
				out.Stats.Skipped++
				out.Stats.SkippedByTactic[tac]++
				continue
			}
			results[i] = &Result{Knobs: k, Config: cfg, Status: StatusExecuted}
			needEval = append(needEval, i)
		}

		// Concurrent trials for the unresolved candidates. Results land
		// at their canonical positions, so reduction order is
		// independent of scheduling.
		for len(evals) < min(opts.Parallel, len(needEval)) {
			evals = append(evals, factory(len(evals)))
		}
		if err := pool.Each(ctx, len(needEval), len(evals), func(w, n int) error {
			return runTrial(ctx, evals[w], results[needEval[n]], bound)
		}); err != nil {
			if ctx.Err() != nil {
				out.Stopped = "cancelled"
				break
			}
			return nil, err
		}
		for _, i := range needEval {
			r := results[i]
			h.put(r)
			switch r.Status {
			case StatusVerdict:
				out.Stats.Verdict++
			case StatusDominated:
				out.Stats.Dominated++
			default:
				out.Stats.Executed++
			}
		}

		// Feed the optimizer and update progress tracking.
		ys := make([]float64, len(gen))
		for i, r := range results {
			ys[i] = objective(r, bound)
			out.History = append(out.History, r)
			if r.Status != StatusInvalid && !r.OOM && r.Status != StatusCached {
				uniqueValid++
			}
			if better(r, out.Best) {
				out.Best = r
			}
		}
		opt.report(gen, ys)
		out.Trajectory = append(out.Trajectory, ProgressPoint{
			UniqueValid: uniqueValid,
			BestMFU:     bestMFU(out.Best),
			BestIter:    bestIter(out.Best),
		})

		// Early stopping on a stable top-5 (by MFU) over non-OOM
		// trials.
		if opts.EarlyStopWindow > 0 {
			top := h.topMFU()
			if equalTop(top, lastTop) {
				stable += countFresh(results)
			} else {
				stable = 0
				lastTop = top
			}
			if stable >= opts.EarlyStopWindow && out.Best != nil {
				out.Stopped = "early stop: top-5 stable"
				break
			}
		}
	}
	if out.Stopped == "" {
		out.Stopped = "budget exhausted"
	}
	out.Elapsed = time.Since(start)
	if out.Stopped == "cancelled" {
		return out, ctx.Err()
	}
	if out.Best == nil {
		return out, fmt.Errorf("search: no valid configuration found in %d samples", sampled)
	}
	return out, nil
}

func applyTactics(tactics []Tactic, k Knobs, h *history) (derived, string, bool) {
	for _, t := range tactics {
		if d, ok := t.Apply(k, h); ok {
			return d, t.Name, true
		}
	}
	return derived{}, "", false
}

// runTrial evaluates one unresolved candidate and records how the
// evaluator resolved it.
func runTrial(ctx context.Context, eval Evaluator, r *Result, bound time.Duration) error {
	ev, err := eval(ctx, r.Config, bound)
	if err != nil {
		return fmt.Errorf("search: trial %s: %w", r.Knobs, err)
	}
	switch {
	case ev.Truncated:
		r.Status = StatusDominated
		r.Dominated = true
		r.PeakMem = ev.PeakMem
	case ev.Verdict:
		r.Status = StatusVerdict
		r.OOM = true
		r.PeakMem = ev.PeakMem
	default:
		r.OOM = ev.OOM
		r.IterTime = ev.IterTime
		r.MFU = ev.MFU
		r.PeakMem = ev.PeakMem
	}
	return nil
}

// objective is the minimized value: iteration time, with invalid, OOM
// and dominated points pushed out by graded penalties (the optimizer
// still senses direction). A dominated trial's true time is unknown
// beyond exceeding the bound, so the bound itself is the honest —
// and schedule-independent — stand-in.
func objective(r *Result, bound time.Duration) float64 {
	switch {
	case r.Invalid:
		return 1e9
	case r.OOM:
		return 1e6
	case r.Dominated:
		return bound.Seconds()
	default:
		return r.IterTime.Seconds()
	}
}

func better(r, best *Result) bool {
	if r.Invalid || r.OOM || r.Dominated || r.IterTime <= 0 {
		return false
	}
	return best == nil || r.IterTime < best.IterTime
}

func bestMFU(r *Result) float64 {
	if r == nil {
		return 0
	}
	return r.MFU
}

func bestIter(r *Result) time.Duration {
	if r == nil {
		return 0
	}
	return r.IterTime
}

// naiveTopMFU recomputes the top-n MFUs by scanning the whole
// history — the reference implementation history.topMFU's incremental
// bookkeeping is tested against.
func naiveTopMFU(h *history, n int) []float64 {
	var mfus []float64
	for _, r := range h.byKnobs {
		if topEligible(r) {
			mfus = append(mfus, r.MFU)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mfus)))
	if len(mfus) > n {
		mfus = mfus[:n]
	}
	return mfus
}

func equalTop(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countFresh counts the generation's freshly resolved non-OOM trials
// — executed, tactic-skipped or dominated — toward the early-stop
// stability window. Cached repeats of already-evaluated points are
// excluded (see Options.EarlyStopWindow).
func countFresh(rs []*Result) int {
	n := 0
	for _, r := range rs {
		if r.OOM || r.Invalid || r.Status == StatusCached {
			continue
		}
		n++
	}
	return n
}
