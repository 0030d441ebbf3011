// Package faults is Maya's deterministic fault-scenario layer: a
// serializable, seeded Plan describing stragglers, fail-stop deaths
// and elastic resizes, compiled onto the typed-event engine
// (internal/sim) and evaluated into a sim.RecoveryReport.
//
// The split of responsibilities follows the engine's grain. What the
// engine can express exactly — a device computing slowly, a rank
// vanishing mid-trace and wedging its collective partners — is
// injected as a sim.Injection and measured event-by-event. What spans
// many trace replays — detection timeouts, checkpoint rewinds,
// replayed iterations, re-shard pauses — is walked analytically over
// the trace's iteration boundaries by Evaluate, using engine runs to
// price each failure's wedge. Every decision derives from the plan's
// seed and simulated time, never from the host clock or map order, so
// a scenario's report is bit-identical across reruns, pooled engines
// and any caller concurrency.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"maya/internal/sim"
	"maya/internal/trace"
)

// Straggler selects ranks and slows their device compute by a
// multiplicative factor in [1, MaxStragglerFactor], optionally only
// inside a trace-time window. Selection: the named Ranks, plus every
// rank r with r % EveryNth == 0 when EveryNth > 0; with neither
// selector, every rank straggles.
type Straggler struct {
	Ranks    []int         `json:"ranks,omitempty"`
	EveryNth int           `json:"every_nth,omitempty"`
	Factor   float64       `json:"factor"`
	From     time.Duration `json:"from_ns,omitempty"`
	Until    time.Duration `json:"until_ns,omitempty"`
}

// MaxStragglerFactor is the largest slowdown a plan may name: a device
// a thousand times slow is already a failure in all but name.
const MaxStragglerFactor = 1000

// FailStop schedules one rank's death at a scenario wall-clock time.
// Detect and Restore override the plan's defaults when positive.
type FailStop struct {
	Rank    int           `json:"rank"`
	At      time.Duration `json:"at_ns"`
	Detect  time.Duration `json:"detect_ns,omitempty"`
	Restore time.Duration `json:"restore_ns,omitempty"`
}

// Resize changes the world size at an iteration boundary. The
// re-shard pause is Base plus StateBytes moved at BWGBps; iteration
// time then scales weakly by oldWorld/newWorld.
type Resize struct {
	AtIteration int           `json:"at_iteration"`
	NewWorld    int           `json:"new_world"`
	StateBytes  int64         `json:"state_bytes,omitempty"`
	BWGBps      float64       `json:"bw_gbps,omitempty"`
	Base        time.Duration `json:"base_ns,omitempty"`
}

// Plan is a complete fault scenario. The zero value is a no-op plan;
// a Plan is plain data and safe to share between concurrent
// evaluations.
type Plan struct {
	// Seed drives MTBF failure arrivals and victim selection.
	Seed uint64 `json:"seed,omitempty"`

	// CheckpointEvery commits a checkpoint after every k-th
	// iteration; 0 disables checkpointing, so a failure rewinds to
	// the start of training.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// CheckpointCost is the wall-clock pause per checkpoint write.
	CheckpointCost time.Duration `json:"checkpoint_cost_ns,omitempty"`

	// MTBF, when positive, draws fail-stop arrivals from a Poisson
	// process with this mean time between failures, victims chosen
	// uniformly by the seed. Explicit Failures compose with it.
	MTBF time.Duration `json:"mtbf_ns,omitempty"`
	// Detect is the default failure-detection timeout: how long
	// survivors stay wedged on a dead rank before the job reacts.
	Detect time.Duration `json:"detect_ns,omitempty"`
	// Restore is the default checkpoint-restore pause after detection.
	Restore time.Duration `json:"restore_ns,omitempty"`

	// Iterations extends the scenario past the trace: the walk
	// replays the trace's iterations and continues at its
	// steady-state rate up to this many. 0 means the trace's own
	// iteration count.
	Iterations int `json:"iterations,omitempty"`

	// MaxRestarts bounds recovery attempts before Evaluate gives up
	// (a scenario whose MTBF is shorter than its recovery time never
	// converges). 0 means the default of 1000.
	MaxRestarts int `json:"max_restarts,omitempty"`

	Stragglers []Straggler `json:"stragglers,omitempty"`
	Failures   []FailStop  `json:"failures,omitempty"`
	Resizes    []Resize    `json:"resizes,omitempty"`
}

// Validate checks the plan's internal consistency; job-dependent
// checks (rank presence) happen when the plan is bound to a trace.
func (p *Plan) Validate() error {
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("faults: checkpoint_every %d < 0", p.CheckpointEvery)
	}
	if p.CheckpointCost < 0 || p.MTBF < 0 || p.Detect < 0 || p.Restore < 0 {
		return errors.New("faults: negative duration in plan")
	}
	if p.Iterations < 0 {
		return fmt.Errorf("faults: iterations %d < 0", p.Iterations)
	}
	if p.MaxRestarts < 0 {
		return fmt.Errorf("faults: max_restarts %d < 0", p.MaxRestarts)
	}
	for i, s := range p.Stragglers {
		if !(s.Factor >= 1 && s.Factor <= MaxStragglerFactor) { // NaN fails both
			return fmt.Errorf("faults: straggler %d: factor %v outside [1, %v]", i, s.Factor, MaxStragglerFactor)
		}
		if s.EveryNth < 0 {
			return fmt.Errorf("faults: straggler %d: every_nth %d < 0", i, s.EveryNth)
		}
		if s.From < 0 || s.Until < 0 || (s.Until > 0 && s.Until <= s.From) {
			return fmt.Errorf("faults: straggler %d: bad window [%v, %v)", i, s.From, s.Until)
		}
		for _, r := range s.Ranks {
			if r < 0 {
				return fmt.Errorf("faults: straggler %d: negative rank %d", i, r)
			}
		}
	}
	for i, f := range p.Failures {
		if f.Rank < 0 {
			return fmt.Errorf("faults: failure %d: negative rank %d", i, f.Rank)
		}
		if f.At < 0 || f.Detect < 0 || f.Restore < 0 {
			return fmt.Errorf("faults: failure %d: negative duration", i)
		}
	}
	for i, r := range p.Resizes {
		if r.AtIteration < 0 {
			return fmt.Errorf("faults: resize %d: at_iteration %d < 0", i, r.AtIteration)
		}
		if r.NewWorld < 1 {
			return fmt.Errorf("faults: resize %d: new_world %d < 1", i, r.NewWorld)
		}
		if r.StateBytes < 0 || r.BWGBps < 0 || r.Base < 0 {
			return fmt.Errorf("faults: resize %d: negative cost", i)
		}
		if r.StateBytes > 0 && r.BWGBps <= 0 {
			return fmt.Errorf("faults: resize %d: state_bytes without bw_gbps", i)
		}
	}
	return nil
}

// ParsePlan decodes a JSON plan and validates it. Unknown fields are
// errors: a typo in a scenario file should fail loudly, not silently
// run a different experiment.
func ParsePlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// matches reports whether the straggler clause selects rank r.
func (s *Straggler) matches(r int) bool {
	if len(s.Ranks) == 0 && s.EveryNth == 0 {
		return true
	}
	for _, want := range s.Ranks {
		if want == r {
			return true
		}
	}
	return s.EveryNth > 0 && r%s.EveryNth == 0
}

// Injection compiles the plan's stragglers onto the job's worker
// indexing. Fail-stop is not included — Evaluate injects deaths
// per-failure at positions it computes during the walk. Returns nil
// when the plan has no stragglers. Errors when a targeted rank is
// absent from the job: fault plans need the full worker set, so
// deduplicated captures must be taken with dedup disabled.
func (p *Plan) Injection(job *trace.Job) (*sim.Injection, error) {
	if len(p.Stragglers) == 0 {
		return nil, nil
	}
	byRank := make(map[int]int, len(job.Workers))
	for i, w := range job.Workers {
		byRank[w.Rank] = i
	}
	inj := &sim.Injection{Slowdown: make([]sim.SlowWindow, 0, len(p.Stragglers))}
	for i := range p.Stragglers {
		s := &p.Stragglers[i]
		for _, r := range s.Ranks {
			if _, ok := byRank[r]; !ok {
				return nil, fmt.Errorf("faults: straggler targets rank %d absent from job (deduplicated capture? re-capture with dedup disabled)", r)
			}
		}
		sw := sim.SlowWindow{
			Factor: make([]float64, len(job.Workers)),
			From:   int64(s.From),
			Until:  int64(s.Until),
		}
		for w, wk := range job.Workers {
			if s.matches(wk.Rank) {
				sw.Factor[w] = s.Factor
			}
		}
		inj.Slowdown = append(inj.Slowdown, sw)
	}
	return inj, nil
}

// sortedFailures returns the explicit failures ordered by time of
// death (stable on rank for equal times).
func (p *Plan) sortedFailures() []FailStop {
	out := append([]FailStop(nil), p.Failures...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}
