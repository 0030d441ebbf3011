package framework

import "fmt"

// ActionKind discriminates pipeline schedule steps.
type ActionKind uint8

// Pipeline actions.
const (
	// ActForward runs one microbatch through one virtual chunk.
	ActForward ActionKind = iota
	// ActBackward runs the corresponding backward pass.
	ActBackward
)

// Action is one step of a rank's pipeline program.
type Action struct {
	Kind ActionKind
	// VStage is the global virtual stage index in [0, PP*V); the
	// owning rank is VStage % PP and the local chunk VStage / PP.
	VStage int
	// Micro is the microbatch index.
	Micro int
}

// String implements fmt.Stringer.
func (a Action) String() string {
	k := "F"
	if a.Kind == ActBackward {
		k = "B"
	}
	return fmt.Sprintf("%s(v%d,m%d)", k, a.VStage, a.Micro)
}

// loopedOwner places virtual stage vs on rank vs % pp: each rank's
// chunks loop over the pipeline (pp*v virtual stages interleave v
// chunks per rank; v=1 is classic 1F1B).
func loopedOwner(pp int) func(int) int { return func(vs int) int { return vs % pp } }

// dualPipeOwner places virtual stages p and 2*pp-1-p on rank p: the
// DualPipe schedule (DeepSeek's bidirectional pipeline, the paper's
// §3.3 example of a novel schedule that static performance models
// must be rewritten for). The model splits into 2*pp chunks and each
// rank owns a chunk from each end, so the first rank also holds the
// last stage and backward work starts flowing while forward work
// still fills the pipe, increasing overlap and shrinking the bubble.
//
// Under Maya nothing else changes: the schedule emits the same device
// API calls and the simulator replays them — no analytical bubble
// formula needs rewriting, which is precisely the transparency
// argument.
func dualPipeOwner(pp int) func(int) int {
	return func(vs int) int {
		if vs < pp {
			return vs
		}
		return 2*pp - 1 - vs
	}
}

// BuildPipelineScheduleOwner computes a deadlock-free 1F1B schedule
// for d virtual stages assigned to pp physical ranks by the owner
// function, over m microbatches. It returns one ordered action list
// per physical stage.
//
// The schedule is produced by deterministic list scheduling over the
// task DAG — F(vs,μ) depends on F(vs-1,μ), B(vs,μ) on B(vs+1,μ) and
// B(D-1,μ) on F(D-1,μ) — with two policies that reproduce 1F1B:
// backward work always outranks forward work, and each virtual stage
// may keep at most D-vs microbatches in flight (the classic 1F1B
// in-flight bound, generalized to interleaving). For one chunk per
// rank this yields exactly the textbook 1F1B schedule; for v>1 looped
// chunks a variant whose bubble shrinks with v, the effect pipeline
// interleaving exists to produce. Activation lifetime (allocate at F,
// free at B) follows the schedule, so peak memory is
// schedule-accurate.
//
// Dependencies are honored at task *completion* times, so each rank's
// action order is a valid linearization of the global DAG: replaying
// the per-rank orders with blocking point-to-point transfers cannot
// deadlock.
func BuildPipelineScheduleOwner(pp, d, m int, owner func(int) int) [][]Action {
	if pp < 1 || d < pp || d%pp != 0 || m < 1 {
		panic(fmt.Sprintf("framework: invalid schedule params pp=%d d=%d m=%d", pp, d, m))
	}

	const unscheduled = int64(-1)
	fDoneAt := make([][]int64, d)
	bDoneAt := make([][]int64, d)
	for vs := 0; vs < d; vs++ {
		fDoneAt[vs] = make([]int64, m)
		bDoneAt[vs] = make([]int64, m)
		for mu := 0; mu < m; mu++ {
			fDoneAt[vs][mu] = unscheduled
			bDoneAt[vs][mu] = unscheduled
		}
	}
	fIssued := make([]int, d) // forwards issued per virtual stage
	bIssued := make([]int, d) // backwards issued per virtual stage

	type rankState struct {
		busyUntil int64
		actions   []Action
	}
	ranks := make([]rankState, pp)

	// owned[p] lists rank p's virtual stages, ascending.
	owned := make([][]int, pp)
	for vs := 0; vs < d; vs++ {
		p := owner(vs)
		if p < 0 || p >= pp {
			panic(fmt.Sprintf("framework: owner(%d) = %d out of range", vs, p))
		}
		owned[p] = append(owned[p], vs)
	}
	for p := range owned {
		if len(owned[p]) != d/pp {
			panic(fmt.Sprintf("framework: owner assigns %d stages to rank %d, want %d", len(owned[p]), p, d/pp))
		}
	}
	v := d / pp

	inflightCap := func(vs int) int {
		c := d - vs
		if c > m {
			c = m
		}
		if c < 1 {
			c = 1
		}
		return c
	}

	done := func(t int64, now int64) bool { return t != unscheduled && t <= now }

	// Readiness at time now; microbatches flow through each virtual
	// stage strictly in order (FIFO channels).
	fReady := func(vs int, now int64) (int, bool) {
		mu := fIssued[vs]
		if mu >= m {
			return 0, false
		}
		if vs > 0 && !done(fDoneAt[vs-1][mu], now) {
			return 0, false
		}
		if fIssued[vs]-bIssued[vs] >= inflightCap(vs) {
			return 0, false
		}
		return mu, true
	}
	bReady := func(vs int, now int64) (int, bool) {
		mu := bIssued[vs]
		if mu >= m {
			return 0, false
		}
		if vs == d-1 {
			if !done(fDoneAt[vs][mu], now) {
				return 0, false
			}
		} else if !done(bDoneAt[vs+1][mu], now) {
			return 0, false
		}
		return mu, true
	}

	const (
		fDur = int64(2)
		bDur = int64(4) // backward ≈ 2x forward
	)

	remaining := 2 * d * m
	var now int64
	for remaining > 0 {
		progressed := false
		for p := 0; p < pp; p++ {
			r := &ranks[p]
			if r.busyUntil > now {
				continue
			}
			// Backward first (1F1B), deepest owned stage first so
			// gradients drain; then forward, shallowest stage first.
			picked := false
			for c := v - 1; c >= 0 && !picked; c-- {
				vs := owned[p][c]
				if mu, ok := bReady(vs, now); ok {
					r.actions = append(r.actions, Action{Kind: ActBackward, VStage: vs, Micro: mu})
					bDoneAt[vs][mu] = now + bDur
					bIssued[vs]++
					r.busyUntil = now + bDur
					remaining--
					picked = true
				}
			}
			for c := 0; c < v && !picked; c++ {
				vs := owned[p][c]
				if mu, ok := fReady(vs, now); ok {
					r.actions = append(r.actions, Action{Kind: ActForward, VStage: vs, Micro: mu})
					fDoneAt[vs][mu] = now + fDur
					fIssued[vs]++
					r.busyUntil = now + fDur
					remaining--
					picked = true
				}
			}
			if picked {
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Advance to the next completion.
		next := int64(-1)
		for p := range ranks {
			if ranks[p].busyUntil > now && (next < 0 || ranks[p].busyUntil < next) {
				next = ranks[p].busyUntil
			}
		}
		if next < 0 {
			// No rank is busy and nothing is ready: the DAG and
			// in-flight bounds would have to be inconsistent, which
			// the constructor's invariants rule out.
			panic(fmt.Sprintf("framework: schedule stuck at pp=%d v=%d m=%d remaining=%d", pp, v, m, remaining))
		}
		now = next
	}
	out := make([][]Action, pp)
	for p := range ranks {
		out[p] = ranks[p].actions
	}
	return out
}
