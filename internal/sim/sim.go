// Package sim is Maya's end-to-end discrete-event simulator. It
// replays a job trace, every device op's predicted duration read from
// a duration overlay, against a model of hosts, devices and streams,
// reproducing the execution semantics of the CUDA runtime:
//
//   - each worker has a host dispatch queue that issues API calls in
//     program order, pausing for measured host delays and blocking on
//     synchronization calls;
//   - each device executes streams concurrently, each stream FIFO;
//   - cudaEventRecord/cudaStreamWaitEvent pairs synchronize streams
//     through a versioned event wait map (Algorithm 3 of the paper);
//   - NCCL collectives synchronize workers through a network
//     collective wait map: every participant blocks its stream until
//     the last one arrives, then all proceed in lockstep for the
//     predicted on-the-wire duration.
//
// Pipeline bubbles, compute/communication overlap and host-bound
// stretches all emerge from these rules rather than from explicit
// modeling, which is the point of simulating at CUDA-API granularity.
//
// A "physical" mode adds effects Maya's predictor deliberately does
// not model — per-kernel launch jitter and SM contention between
// overlapping compute and communication. The synthetic-silicon ground
// truth runs in that mode, so predicted-vs-actual experiments face
// the same reality gap the paper's do (§8, SM Contention).
//
// # The engine
//
// The event loop is a typed one: every scheduled occurrence is a
// plain simEvent value (kind + stream, host or call payload) on a
// slice-backed binary heap, dispatched by a switch. Nothing in the hot
// loop allocates — no closures, no interface boxing — which matters
// because sim.Run is the inner loop of capture-reuse sweeps and recipe
// searches that replay the same trace thousands of times.
//
// Nor does it hash, and it keeps one record per thing it tracks, in a
// slice indexed by the dense slot Compile gives it (see Index). A
// stream's record is bound to the stream the first time its host
// touches it. An event version's record holds its completion, the FIFO
// of streams parked on it and the host blocked on it. A collective
// call's record, drawn from the engine's pool at its first join, holds
// the call until it completes, on a congested wire too. A caller that
// replays one job many times compiles it once and passes the Index in
// Options. A stream's queue is a fixed window of one flat buffer,
// placed by the Index, and a queue entry is pointer-free: the op's
// position, kind and enqueue time. So dispatch grows no slice, reads a
// trace.Op only for an observer callback or a deadlock message
// (durations come from the overlay by position), and the busy
// intervals Engine.Busy unions sit in the same windows, already in
// start order per stream.
//
// A stream dispatches timed work in chains (see kickStream), the one
// route whatever observer, fault injection or congestion is attached.
//
// An Engine is reusable: Reset rebinds it to a new job while keeping
// every slice and call record it has ever grown, and AcquireEngine
// draws engines from a sync.Pool so back-to-back simulations reuse
// storage instead of reallocating it. Engine.Run returns a run's
// timing core, and only Engine.Busy adds the busy unions, for the
// callers that read them. Reports never alias engine storage — they
// are safe to keep after the engine is reset or pooled.
// An engine only reads what a run is given — the job, its Index, the
// duration overlay — so one index and one overlay can back any number
// of concurrent runs, each on its own engine.
//
// An Observer (see observer.go) can be attached through Options to
// watch the run at CUDA-API granularity; a nil observer costs one
// predictable branch per event.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"maya/internal/prand"
	"maya/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	// Participants overrides, per collective call, how many workers
	// the wait map expects. The collator provides this when
	// deduplicated jobs simulate only unique workers. Nil means every
	// call waits for all traced participants. Compile reads it.
	Participants map[trace.CollKey]int

	// Index is the job compiled for the engine, Compile(job,
	// Participants): not a knob but the part of every run of one job
	// that does not depend on the run, kept so that repeated runs skip
	// it. It is read-only and may be shared by concurrent runs. Nil, or
	// an index compiled for another job or another Participants map
	// (compared by identity), makes Reset compile one. The map must be
	// left unwritten while an index of it is in use.
	Index *Index

	// Observer, when non-nil, receives engine callbacks at CUDA-API
	// granularity (op ends, collective fires, stall ends, host
	// delays, marks). Observers watch; they must not retain the
	// *trace.Op pointers beyond the callback. A nil observer adds no
	// per-event cost.
	Observer Observer

	// Annotations is the duration overlay the engine reads every
	// device-op and collective duration from, by op position; the job
	// itself records no durations. It is required: Run fails without
	// one. The engine only reads it: one overlay, such as an estimate
	// plan's, may back any number of concurrent runs. Host gaps come
	// from the trace (annotation never touches them). The overlay must
	// be bound to this job and left unwritten until Run returns.
	Annotations *trace.Annotations

	// Congestion, when non-nil, resolves collective durations against
	// a shared-link occupancy model at fire time: concurrently-active
	// collectives sharing a link domain split its bandwidth. Off by
	// default (collectives replay their annotated durations verbatim).
	// Deterministic: results are bit-identical across runs, pooling
	// and worker counts. Not meaningful combined with CommContention
	// (physical mode models contention its own way).
	Congestion *CongestionModel

	// TimeLimit is a simulated-clock horizon: the engine drains events
	// in deterministic (time, sequence) order and stops the moment the
	// next event lies strictly beyond the limit, returning a Report
	// with Truncated set instead of finishing the trace. Zero means no
	// horizon. Because the event order is a strict total order
	// independent of heap layout, pooling and goroutine schedule, a
	// truncated run is exactly reproducible: the same job, annotations
	// and limit always process the same event prefix. Recipe searches
	// use this to abandon trials that are provably slower than an
	// incumbent without simulating them to completion.
	TimeLimit time.Duration

	// Faults, when non-nil, perturbs the run with the compiled fault
	// scenario (stragglers, fail-stop): see faults.go. Nil injects
	// nothing and costs nothing on the hot path. Injections are pure
	// functions of (worker, simulated time), so perturbed runs keep
	// the engine's bit-identical determinism across reruns, pooling
	// and caller concurrency.
	Faults *Injection

	// Physical-mode knobs (ground truth only; zero for prediction).

	// JitterFrac is the relative sigma of deterministic log-normal
	// noise applied to device op durations.
	JitterFrac float64
	// CommContention slows compute kernels that start while a
	// collective is in flight on the same device, modeling SM
	// contention between NCCL and compute kernels.
	CommContention float64
	// Seed drives the deterministic jitter.
	Seed uint64
}

// Run simulates the job and returns its report. It fails with an
// error wrapping ErrDeadlock if the trace deadlocks (mismatched
// collectives or waits), which indicates an invalid workload rather
// than a simulator bug. The event loop observes ctx: a cancelled
// simulation stops promptly and returns ctx.Err().
//
// Run builds a fresh Engine per call, compiling the job unless opts
// carries its Index: the reference the reused-engine paths are tested
// against. Product code reaches the engine only through
// core.Pipeline's run, on an engine from AcquireEngine.
func Run(ctx context.Context, job *trace.Job, opts Options) (*Report, error) {
	e := NewEngine()
	e.Reset(job, opts)
	return e.runBusy(ctx)
}

// runBusy is Run followed by Busy: the full report.
func (e *Engine) runBusy(ctx context.Context) (*Report, error) {
	r, err := e.Run(ctx)
	if err == nil {
		e.Busy(r)
	}
	return r, err
}

// enginePool is the process's one pool of engines.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// AcquireEngine returns an engine from the process-wide pool, usually
// one whose storage a previous owner already grew. One goroutine at a
// time may use it; pair with Release.
func AcquireEngine() *Engine { return enginePool.Get().(*Engine) }

// Release drops every reference to caller data — the job, its ops,
// its index, the observer — so a pooled engine never pins a trace in
// memory, and parks the engine, grown storage and all, for the next
// AcquireEngine. The engine must not be used after Release.
func (e *Engine) Release() {
	e.scrub()
	enginePool.Put(e)
}

// RunPooled is Run on an engine from AcquireEngine; results are
// identical to Run's and it is safe for concurrent use. It exists for
// bench/'s engine rungs, which time the engine without core around
// it; no product code calls it (CI enforces that).
func RunPooled(ctx context.Context, job *trace.Job, opts Options) (*Report, error) {
	e := AcquireEngine()
	defer e.Release()
	e.Reset(job, opts)
	return e.runBusy(ctx)
}

// ErrDeadlock marks a run that ended with a worker blocked for good: a
// collective some participant never joins, or a wait on an event
// version nothing records. The error wrapping it names the worker and
// what it waits for.
var ErrDeadlock = errors.New("sim: deadlock")

// pendingOp is one queued op: its host enqueue time, its position in
// its worker's ops and its kind — all dispatch needs, and no pointer,
// so the flat queue buffer is memory the collector never scans.
type pendingOp struct {
	enq  int64 // host time at enqueue
	i    int32 // the op's position in its worker's ops
	kind trace.Kind
}

// streamState is one stream slot of the engine's stream table, bound
// to its stream the first time the host touches it.
type streamState struct {
	bound bool
	w     int
	id    int64
	// queue is the stream's window of the engine's flat queue buffer,
	// with room for every op the host hands the stream, so appending
	// never grows it. ivals is the same window of the interval buffer:
	// ivals[j] is queue[j]'s busy interval, written as the op starts
	// (zero for records, waits and a collective not yet fired). A
	// stream is FIFO, so its intervals are in start order.
	queue []pendingOp
	ivals []interval
	head  int

	// syncs is the stream's row of the Index — the event or collective
	// slot of each record, wait and collective it consumes, in order —
	// and syncAt the position of the next.
	syncs  []int32
	syncAt int

	freeAt     int64
	running    bool
	stalledEv  bool
	stalledCol bool
	waitSlot   int32 // the event or collective slot a stall waits on
	stallStart int64

	// nextWait chains streams waiting on the same event (the wait
	// map's FIFO release order) without allocating waiter slices.
	nextWait *streamState

	// The running chain: ops queue[chainHead:head]. epoch voids an
	// end event that a contention stretch superseded.
	chainHead int
	epoch     int64
}

func (st *streamState) drained() bool {
	return !st.running && !st.stalledEv && !st.stalledCol && st.head == len(st.queue)
}

// busy returns the intervals the run has written: those of every op
// the stream has passed, and of a collective it is stalled in.
func (st *streamState) busy() []interval {
	n := st.head
	if st.stalledCol {
		n++
	}
	return st.ivals[:n]
}

// nextSlot returns the slot of the record, wait or collective the
// stream has reached, advancing its row cursor.
func (st *streamState) nextSlot() int32 {
	s := st.syncs[st.syncAt]
	st.syncAt++
	return s
}

type hostWait uint8

const (
	waitNone hostWait = iota
	waitEvent
	waitStream
	waitDevice
)

type hostState struct {
	w    int
	ops  []trace.Op
	tail time.Duration // the worker's TailGap
	pos  int
	t    int64
	done bool

	// syncs is the worker's event-sync row of the Index and syncAt the
	// position of the next.
	syncs  []int32
	syncAt int

	wait       hostWait
	waitStream *streamState
	scheduled  bool

	// last is the stream the host last touched: runs of ops go to one
	// stream, so only a switch pays the slot search.
	last *streamState
}

// collGroup is one collective call from its first join to its
// completion. While the wait map gathers its participants it holds
// them and their arrival times; once the last one joins, a call with a
// congestion demand goes on the wire as a flow whose latRem drains in
// real time and workRem at rate 1/factor. A record is recycled when
// its call finishes; epoch survives recycling, so events of an earlier
// call that are still in the heap carry older epochs and are dropped.
type collGroup struct {
	arrived  []*streamState
	arriveAt []int64
	dur      int64
	expected int

	key     trace.CollKey
	links   []int32 // aliases the demand's slice; dropped on finish
	latRem  int64
	workRem int64
	factor  int64 // current slowdown; 0 = sentinel forcing first tune
	lastUpd int64 // sim time progress has been accrued to
	started int64
	epoch   int64 // invalidates superseded flow events
}

type interval struct {
	start, end int64
	comm       bool
}

// evKind discriminates scheduled events. The event loop is a switch
// over these instead of a heap of closures: a simEvent is a plain
// value, so scheduling allocates nothing.
type evKind uint8

const (
	evHostRun    evKind = iota // (re-)enter a worker's host dispatch loop
	evOpEnd                    // a timed device op completed (arg = epoch)
	evStreamKick               // resume an event-released stream
	evCollDone                 // a collective finished (arg = its start time)
	evFlowStart                // a call's deferred start on a congested wire (arg = epoch)
	evFlowDone                 // a call on a congested wire may have finished (arg = epoch)
)

// simEvent is one scheduled occurrence: a kind, its due time, a
// tie-breaking sequence number, and the payload the kind needs.
type simEvent struct {
	t    int64
	seq  int64
	arg  int64
	st   *streamState
	host *hostState
	coll *collGroup
	kind evKind
}

func eventBefore(a, b simEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventState is one slot of the event wait map: whether its version
// has been recorded, and when; the FIFO of streams parked on it,
// chained through streamState.nextWait; and the host blocked on it in
// a cudaEventSynchronize.
type eventState struct {
	t          int64
	done       bool
	head, tail *streamState
	host       *hostState
}

// Engine is a reusable simulator instance. The zero value is not
// ready; construct with NewEngine. The lifecycle is
//
//	e := NewEngine()
//	e.Reset(job, opts)
//	report, err := e.Run(ctx)
//	e.Busy(report)         // only if the busy unions are read
//	e.Reset(nextJob, opts) // storage from the first run is reused
//	...
//
// An Engine is single-goroutine: Reset and Run must not be called
// concurrently. Reports returned by Run never alias engine storage,
// so they stay valid after the engine is reset, pooled or dropped.
type Engine struct {
	job  *trace.Job
	x    *Index
	opts Options
	obs  Observer
	ann  *trace.Annotations

	pq    []simEvent
	evSeq int64
	now   int64

	hosts []hostState
	// streams is the stream table, by slot; byWorker lists a worker's
	// streams in the order they were bound, for device-wide
	// synchronization, drain checks and deterministic iteration.
	streams  []streamState
	byWorker [][]*streamState

	// The event wait map and the network collective wait map, by slot,
	// and the recycled call records.
	events    []eventState
	colls     []*collGroup
	freeColls []*collGroup
	// Congestion state: the calls on the wire in start order and
	// per-link-domain occupancy counts.
	cong    *CongestionModel
	flows   []*collGroup
	linkUse []int32
	// activeColls tracks, per worker, the fired-but-unfinished
	// collective intervals, for SM-contention overlap queries.
	activeColls [][]interval

	// pending and ivals are the flat queue and interval buffers every
	// stream's window lies in, sized by the Index and kept across runs.
	pending []pendingOp
	ivals   []interval
	marks   [][]MarkAt
	// busy is Busy's reusable interval-merge scratch.
	busy busyScratch

	rng jitterSource
	ran bool
	// inj is the bound fault injection; nil on the fault-free path.
	inj *Injection
}

type jitterSource struct {
	frac float64
	seed uint64
}

func (j jitterSource) factor(a, b int64) float64 {
	if j.frac == 0 {
		return 1
	}
	h := prand.HashInts(j.seed, a, b)
	z := prand.New(h).NormFloat64()
	f := 1 + j.frac*z
	if f < 0.2 {
		f = 0.2
	}
	return f
}

// NewEngine returns an empty engine ready for Reset.
func NewEngine() *Engine { return &Engine{} }

// scrub ends the bound run: it recycles the call records still in the
// wait map or on the wire, zeroes every per-run table and drops every
// reference to caller data, keeping grown storage for the next Reset.
// Entries past a table's length are zero too, since each was zeroed
// when last in use, so Reset only resizes. A fresh or scrubbed engine
// has no job and nothing to scrub.
func (e *Engine) scrub() {
	if e.job == nil {
		return
	}
	for _, g := range e.colls {
		if g != nil {
			e.recycleColl(g)
		}
	}
	for _, g := range e.flows {
		e.recycleColl(g)
	}
	e.job, e.x, e.obs, e.ann, e.cong, e.inj = nil, nil, nil, nil, nil, nil
	e.opts = Options{}
	e.evSeq, e.now = 0, 0
	clear(e.pq)
	clear(e.flows)
	e.pq, e.flows = e.pq[:0], e.flows[:0]
	clear(e.hosts)
	clear(e.streams)
	clear(e.events)
	clear(e.colls)
	for w := range e.byWorker {
		clear(e.marks[w])
		e.marks[w] = e.marks[w][:0]
		e.byWorker[w] = e.byWorker[w][:0]
		e.activeColls[w] = e.activeColls[w][:0]
	}
}

// Reset rebinds the engine to a job, reusing all storage grown by
// previous runs. The job must stay immutable for the duration of the
// following Run; the engine only reads it.
func (e *Engine) Reset(job *trace.Job, opts Options) {
	e.scrub()
	x := opts.Index
	if x == nil || !x.compiledFrom(job, opts.Participants) {
		x = Compile(job, opts.Participants)
	}
	e.job, e.x = job, x
	e.opts = opts
	e.obs = opts.Observer
	e.ann = opts.Annotations
	e.ran = false
	e.rng = jitterSource{frac: opts.JitterFrac, seed: opts.Seed}

	n := len(job.Workers)
	e.hosts = resized(e.hosts, n)
	for i, w := range job.Workers {
		e.hosts[i] = hostState{w: i, ops: w.Ops, tail: w.TailGap, syncs: x.hostRow(i)}
	}
	e.byWorker = resized(e.byWorker, n)
	e.activeColls = resized(e.activeColls, n)
	e.marks = resized(e.marks, n)
	e.pending = resized(e.pending, x.queued())
	e.ivals = resized(e.ivals, x.queued())
	e.streams = resized(e.streams, len(x.streamIDs))
	e.events = resized(e.events, int(x.events))
	e.colls = resized(e.colls, len(x.expected))

	e.inj = opts.Faults
	e.cong = opts.Congestion
	if e.cong != nil {
		e.linkUse = zeroed(e.linkUse, len(e.cong.Widths))
	}
}

// zeroed returns s resized to n zero entries, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	s = resized(s, n)
	clear(s)
	return s
}

// resized returns s resized to n entries, reusing its storage; entries
// it keeps hold whatever they held.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// push schedules an event, assigning the tie-breaking sequence
// number, and restores the heap by sifting up.
func (e *Engine) push(ev simEvent) {
	e.evSeq++
	ev.seq = e.evSeq
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(e.pq[i], e.pq[parent]) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

// pop removes and returns the earliest event. (t, seq) is a strict
// total order, so the pop sequence is independent of heap layout.
func (e *Engine) pop() simEvent {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq[n] = simEvent{} // drop stream/host refs from the tail slot
	e.pq = e.pq[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventBefore(e.pq[l], e.pq[least]) {
			least = l
		}
		if r < n && eventBefore(e.pq[r], e.pq[least]) {
			least = r
		}
		if least == i {
			break
		}
		e.pq[i], e.pq[least] = e.pq[least], e.pq[i]
		i = least
	}
	return top
}

// stream returns the state of stream id on h's worker, binding its
// slot on first touch so byWorker keeps binding order.
func (e *Engine) stream(h *hostState, id int64) *streamState {
	if st := h.last; st != nil && st.id == id {
		return st
	}
	slot := e.x.streamSlot(h.w, id)
	st := &e.streams[slot]
	if !st.bound {
		lo, hi := e.x.queue(slot)
		*st = streamState{bound: true, w: h.w, id: id, syncs: e.x.row(slot),
			queue: e.pending[lo:lo:hi], ivals: e.ivals[lo:hi:hi]}
		e.byWorker[h.w] = append(e.byWorker[h.w], st)
	}
	h.last = st
	return st
}

// headOp returns the op at the head of st's queue, for observers and
// error messages: dispatch itself never reads a trace.Op.
func (e *Engine) headOp(st *streamState) *trace.Op {
	return &e.hosts[st.w].ops[st.queue[st.head].i]
}

func (e *Engine) collGroup() *collGroup {
	if n := len(e.freeColls); n > 0 {
		g := e.freeColls[n-1]
		e.freeColls[n-1] = nil
		e.freeColls = e.freeColls[:n-1]
		return g
	}
	return &collGroup{}
}

// recycleColl zeroes a finished call's record but for its storage and
// epoch, and pools it.
func (e *Engine) recycleColl(g *collGroup) {
	clear(g.arrived)
	*g = collGroup{arrived: g.arrived[:0], arriveAt: g.arriveAt[:0], epoch: g.epoch}
	e.freeColls = append(e.freeColls, g)
}

// ctxCheckEvery bounds how many events run between cancellation
// checks: large enough to keep the hot loop branch-cheap, small
// enough that cancelled simulations return within milliseconds.
const ctxCheckEvery = 1 << 13

// Run executes the event loop for the job bound by the last Reset
// and returns its report, busy unions left to Busy. Each Reset
// admits exactly one Run.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	if e.job == nil {
		return nil, errors.New("sim: Engine.Run before Reset")
	}
	if e.ran {
		return nil, errors.New("sim: Engine.Run called twice without Reset")
	}
	if e.ann == nil {
		return nil, errors.New("sim: no duration overlay (Options.Annotations)")
	}
	e.ran = true
	for i := range e.hosts {
		e.push(simEvent{t: 0, kind: evHostRun, host: &e.hosts[i]})
	}
	limit := int64(e.opts.TimeLimit)
	var processed int
	for len(e.pq) > 0 {
		if processed%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		processed++
		ev := e.pop()
		if limit > 0 && ev.t > limit {
			// Simulated time has crossed the horizon: the event order
			// is a strict total order, so this cut is bit-identical
			// for any pooling or goroutine schedule.
			rep := e.buildReport()
			rep.Truncated = true
			return rep, nil
		}
		e.now = ev.t
		switch ev.kind {
		case evHostRun:
			e.runHost(ev.host)
		case evOpEnd:
			e.opEnd(ev.st, ev.arg)
		case evStreamKick:
			e.kickStream(ev.st)
		case evCollDone:
			e.collDone(ev.st, ev.arg, ev.t)
		case evFlowStart:
			e.flowStart(ev.coll, ev.arg)
		case evFlowDone:
			e.flowDone(ev.coll, ev.arg)
		}
	}
	for i := range e.hosts {
		h := &e.hosts[i]
		if !h.done {
			if e.inj != nil && e.inj.FailStop != nil {
				// The wedge is the injected scenario, not a trace bug:
				// the dead worker froze and the survivors stalled on
				// its collectives. Report where each one wedged.
				rep := e.buildReport()
				rep.Halted = true
				rep.Wedged = e.wedged()
				return rep, nil
			}
			return nil, e.deadlockError(h)
		}
	}
	return e.buildReport(), nil
}

// deadlockError names the first blocked worker and, per stalled
// stream, the exact blocking key — the event version or collective
// key the run is waiting for. Workers and streams are visited in
// deterministic (creation) order, so the same invalid trace always
// produces the same message.
func (e *Engine) deadlockError(h *hostState) error {
	var why string
	switch h.wait {
	case waitEvent:
		why = "cudaEventSynchronize"
	case waitStream:
		why = fmt.Sprintf("cudaStreamSynchronize(stream %d)", h.waitStream.id)
	case waitDevice:
		why = "cudaDeviceSynchronize"
	default:
		why = "host dispatch"
	}
	for _, st := range e.byWorker[h.w] {
		if st.drained() {
			continue
		}
		switch {
		case st.stalledCol:
			op := e.headOp(st)
			if g := e.colls[st.waitSlot]; g != nil {
				why += fmt.Sprintf("; stream %d stalled in %s comm=%#x seq=%d (%d/%d joined)",
					st.id, op.Coll.Op, op.Coll.CommID, op.Coll.Seq, len(g.arrived), g.expected)
			} else {
				why += fmt.Sprintf("; stream %d stalled in %s comm=%#x seq=%d (in flight)",
					st.id, op.Coll.Op, op.Coll.CommID, op.Coll.Seq)
			}
		case st.stalledEv:
			op := e.headOp(st)
			why += fmt.Sprintf("; stream %d waiting for event %d v%d", st.id, op.Event, op.EventVer)
		case st.running:
			why += fmt.Sprintf("; stream %d running (%d/%d ops)", st.id, st.head, len(st.queue))
		default:
			why += fmt.Sprintf("; stream %d pending %d/%d ops", st.id, st.head, len(st.queue))
		}
	}
	return fmt.Errorf("%w: worker %d blocked at op %d/%d (%s) t=%s",
		ErrDeadlock, h.w, h.pos, len(h.ops), why, time.Duration(h.t))
}

// runHost advances one worker's host thread until it finishes or
// blocks on a synchronization call. Each op first spends its HostGap
// on the host clock, then runs; the walk's end spends the trace's
// TailGap. A host woken from a sync resumes past the sync op, so its
// gap is spent once.
func (e *Engine) runHost(h *hostState) {
	h.scheduled = false
	if h.done {
		return
	}
	for h.pos < len(h.ops) {
		op := &h.ops[h.pos]
		if g := int64(op.HostGap); g != 0 && !e.hostGap(h, g) {
			return
		}
		if e.inj != nil && e.inj.dead(h.w, h.t) {
			// Fail-stop: the host thread freezes mid-trace — not done,
			// so the drained heap reports Halted rather than a clean
			// finish.
			return
		}
		switch op.Kind {
		case trace.KindMark:
			e.marks[h.w] = append(e.marks[h.w], MarkAt{Label: op.Name, At: time.Duration(h.t)})
			if e.obs != nil {
				e.obs.Mark(h.w, op.Name, h.t)
			}
			h.pos++
		case trace.KindEventSync:
			slot := h.syncs[h.syncAt]
			h.syncAt++
			if slot == noEvent {
				h.pos++
				continue
			}
			ev := &e.events[slot]
			if ev.done {
				h.t = max(h.t, ev.t)
				h.pos++
				continue
			}
			h.wait = waitEvent
			ev.host = h
			return
		case trace.KindStreamSync:
			st := e.stream(h, op.Stream)
			if st.drained() {
				h.t = max(h.t, st.freeAt)
				h.pos++
				continue
			}
			h.wait = waitStream
			h.waitStream = st
			return
		case trace.KindDeviceSync:
			if t, ok := e.deviceDrained(h.w); ok {
				h.t = max(h.t, t)
				h.pos++
				continue
			}
			h.wait = waitDevice
			return
		case trace.KindCollective:
			if op.Coll.Seq < 0 {
				// Communicator initialization record: host-side only.
				h.pos++
				continue
			}
			fallthrough
		default:
			st := e.stream(h, op.Stream)
			st.queue = append(st.queue, pendingOp{enq: h.t, i: int32(h.pos), kind: op.Kind})
			h.pos++
			e.kickStream(st)
		}
	}
	if g := int64(h.tail); g != 0 && !e.hostGap(h, g) {
		return
	}
	h.done = true
}

// hostGap spends a non-zero gap on h's host clock, reporting false
// when the worker is dead before it begins: a fail-stop freezes the
// host where it stood.
func (e *Engine) hostGap(h *hostState, gap int64) bool {
	if e.inj != nil && e.inj.dead(h.w, h.t) {
		return false
	}
	if e.obs != nil {
		e.obs.HostDelay(h.w, h.t, h.t+gap)
	}
	h.t += gap
	return true
}

// deviceDrained reports whether all streams of worker w are idle and
// empty, returning the latest completion time.
func (e *Engine) deviceDrained(w int) (int64, bool) {
	var t int64
	for _, st := range e.byWorker[w] {
		if !st.drained() {
			return 0, false
		}
		t = max(t, st.freeAt)
	}
	return t, true
}

// kickStream lets a stream consume queued ops until it starts timed
// work, stalls, or empties.
func (e *Engine) kickStream(st *streamState) {
	if st.running || st.stalledEv || st.stalledCol {
		return
	}
	for st.head < len(st.queue) {
		p := st.queue[st.head]
		start := max(st.freeAt, p.enq)
		if e.inj != nil && e.inj.dead(st.w, start) {
			// The device stops starting work at the instant of death:
			// no event completions, no collective joins, no timed ops.
			// In-flight work was already scheduled and completes.
			return
		}
		// Records and waits are never busy; a collective's interval is
		// written when it fires, a timed op's below.
		st.ivals[st.head] = interval{}
		switch p.kind {
		case trace.KindEventRecord:
			slot := st.nextSlot()
			st.head++
			st.freeAt = start
			if slot != noEvent {
				e.completeEvent(slot, start)
			}
		case trace.KindStreamWait:
			slot := st.nextSlot()
			if slot == noEvent {
				st.head++
				continue
			}
			ev := &e.events[slot]
			if ev.done {
				st.head++
				st.freeAt = max(start, ev.t)
				continue
			}
			st.stalledEv = true
			st.waitSlot = slot
			st.stallStart = start
			// Park the stream at the tail of the event's FIFO.
			if ev.head == nil {
				ev.head = st
			} else {
				ev.tail.nextWait = st
			}
			ev.tail = st
			e.notifyDrain(st.w)
			return
		case trace.KindCollective:
			// The stream stalls until the group completes; the
			// completion event scheduled by the wait map advances it.
			st.stalledCol = true
			st.waitSlot = st.nextSlot()
			st.stallStart = start
			e.joinCollective(st, p.i, start)
			return
		default:
			// Timed device work (kernel, memcpy, memset) starts a chain:
			// it and the already-enqueued timed ops behind it share one
			// end event. Event and collective ops end a chain, as does
			// an op starting at or after a fail-stop. Under SM contention
			// a chain is one op: a collective firing stretches the
			// kernel running at that instant.
			dur := e.duration(st.w, p.i, start)
			if p.kind == trace.KindKernel && e.opts.CommContention > 0 {
				dur += e.contentionExtra(st.w, start, dur)
			}
			end := start + dur
			st.chainHead = st.head
			st.ivals[st.head] = interval{start: start, end: end}
			st.head++
			st.running = true
			for e.opts.CommContention == 0 && st.head < len(st.queue) {
				p := st.queue[st.head]
				if k := p.kind; k == trace.KindEventRecord || k == trace.KindStreamWait || k == trace.KindCollective {
					break
				}
				s := max(end, p.enq)
				if e.inj != nil && e.inj.dead(st.w, s) {
					break
				}
				end = s + e.duration(st.w, p.i, s)
				st.ivals[st.head] = interval{start: s, end: end}
				st.head++
			}
			st.freeAt = end
			e.push(simEvent{t: end, kind: evOpEnd, st: st, arg: st.epoch})
			return
		}
	}
	e.notifyDrain(st.w)
}

// annotated reads the overlay duration of op i of worker w.
func (e *Engine) annotated(w int, i int32) int64 {
	return int64(e.ann.Dur(w, int(i)))
}

// duration applies fault stretch and jitter to the annotated time of
// op i of worker w. start is the op's device start time, which
// straggler windows match against.
func (e *Engine) duration(w int, i int32, start int64) int64 {
	d := e.annotated(w, i)
	if d < 0 {
		d = 0
	}
	if e.inj != nil {
		d = e.inj.stretch(w, start, d)
	}
	if e.opts.JitterFrac > 0 {
		d = int64(float64(d) * e.rng.factor(int64(w), int64(i)))
	}
	return d
}

// opEnd retires a chain and reports its ops, in order, to the
// observer; stale epochs identify completions that were superseded by
// a contention stretch.
func (e *Engine) opEnd(st *streamState, epoch int64) {
	if st.epoch != epoch {
		return
	}
	st.running = false
	if e.obs != nil {
		ops := e.hosts[st.w].ops
		for j := st.chainHead; j < st.head; j++ {
			op, iv := &ops[st.queue[j].i], st.ivals[j]
			e.obs.OpEnd(st.w, st.id, op, iv.start, iv.end)
		}
	}
	e.kickStream(st)
	e.notifyDrain(st.w)
}

// collDone completes a collective off the congested wire for one
// participant: the interval [startAt, end) was its on-the-wire time.
func (e *Engine) collDone(st *streamState, startAt, end int64) {
	if e.opts.CommContention > 0 {
		e.dropActiveColl(st.w, startAt, end)
	}
	e.release(st, end)
}

// release ends participant p's stall in a call that finished at end
// and lets its stream go on: the one way out of a collective, whether
// the call ran at its annotated duration (collDone) or on a congested
// wire (flowDone).
func (e *Engine) release(p *streamState, end int64) {
	p.stalledCol = false
	p.head++
	p.freeAt = max(p.freeAt, end)
	e.kickStream(p)
	e.notifyDrain(p.w)
}

// contentionExtra returns the added runtime for a kernel on worker w
// spanning [start, start+dur) given the collectives already in flight.
func (e *Engine) contentionExtra(w int, start, dur int64) int64 {
	var overlap int64
	for _, iv := range e.activeColls[w] {
		lo := max(start, iv.start)
		hi := min(start+dur, iv.end)
		if hi > lo {
			overlap += hi - lo
		}
	}
	return int64(e.opts.CommContention * float64(overlap))
}

// stretchRunning extends kernels already executing on worker w that
// overlap a newly fired collective interval — SM contention works in
// both directions in the physical model.
func (e *Engine) stretchRunning(w int, cs, ce int64) {
	for _, st := range e.byWorker[w] {
		if !st.running || st.queue[st.chainHead].kind != trace.KindKernel {
			continue // a chain is one op under contention
		}
		iv := &st.ivals[st.chainHead]
		lo := max(iv.start, cs)
		hi := min(iv.end, ce)
		if hi <= lo {
			continue
		}
		extra := int64(e.opts.CommContention * float64(hi-lo))
		if extra <= 0 {
			continue
		}
		st.epoch++
		iv.end += extra
		st.freeAt = iv.end
		e.push(simEvent{t: iv.end, kind: evOpEnd, st: st, arg: st.epoch})
	}
}

// completeEvent records an event completion and releases its waiters
// (Algorithm 3, CudaEventWaitMap.ReleaseWaiters).
func (e *Engine) completeEvent(slot int32, t int64) {
	ev := &e.events[slot]
	ev.t, ev.done = t, true
	for st := ev.head; st != nil; {
		next := st.nextWait
		st.nextWait = nil
		resume := max(st.stallStart, t)
		st.stalledEv = false
		st.head++
		st.freeAt = max(st.freeAt, resume)
		if e.obs != nil {
			e.obs.StallEnd(st.w, st.id, StallEvent, st.stallStart, resume)
		}
		e.push(simEvent{t: resume, kind: evStreamKick, st: st})
		st = next
	}
	ev.head, ev.tail = nil, nil
	if h := ev.host; h != nil {
		ev.host = nil
		resume := max(h.t, t)
		h.wait = waitNone
		h.t = resume
		h.pos++
		e.scheduleHost(h, resume)
	}
}

func (e *Engine) scheduleHost(h *hostState, t int64) {
	if h.scheduled {
		return
	}
	h.scheduled = true
	e.push(simEvent{t: t, kind: evHostRun, host: h})
}

// notifyDrain re-checks hosts of worker w that block on stream or
// device synchronization.
func (e *Engine) notifyDrain(w int) {
	h := &e.hosts[w]
	switch h.wait {
	case waitStream:
		if h.waitStream.drained() {
			t := max(h.t, h.waitStream.freeAt)
			h.wait = waitNone
			h.waitStream = nil
			h.t = t
			h.pos++
			e.scheduleHost(h, t)
		}
	case waitDevice:
		if t, ok := e.deviceDrained(w); ok {
			t = max(h.t, t)
			h.wait = waitNone
			h.t = t
			h.pos++
			e.scheduleHost(h, t)
		}
	}
}

// joinCollective implements the NetworkCollectiveWaitMap: the stream
// registers op i of its worker and stalls on its call's slot
// (st.waitSlot); the final participant releases the group.
func (e *Engine) joinCollective(st *streamState, i int32, arrive int64) {
	slot := st.waitSlot
	g := e.colls[slot]
	if g == nil {
		g = e.collGroup()
		g.expected = int(e.x.expected[slot])
		e.colls[slot] = g
	}
	g.arrived = append(g.arrived, st)
	g.arriveAt = append(g.arriveAt, arrive)
	g.dur = max(g.dur, e.annotated(st.w, i))
	if len(g.arrived) < g.expected {
		return
	}
	e.colls[slot] = nil

	startAt := g.arriveAt[0]
	for _, t := range g.arriveAt {
		startAt = max(startAt, t)
	}
	dur := g.dur
	// The call's key is read from the op that fired it only where it
	// is priced or reported; a send and its recv give the same key.
	var key trace.CollKey
	if e.opts.JitterFrac > 0 || e.cong != nil || e.obs != nil {
		key = trace.CollKeyOf(&e.hosts[st.w].ops[i])
	}
	if e.opts.JitterFrac > 0 {
		dur = int64(float64(dur) * e.rng.factor(int64(key.Comm), int64(key.Seq)))
	}
	if e.cong != nil {
		if d, ok := e.cong.Demands[key]; ok && len(d.Links) > 0 {
			e.fireFlow(key, g, d, startAt, dur)
			return
		}
	}
	end := startAt + dur
	for k, p := range g.arrived {
		p.ivals[p.head] = interval{start: startAt, end: end, comm: true}
		if e.opts.CommContention > 0 {
			e.activeColls[p.w] = append(e.activeColls[p.w], interval{start: startAt, end: end})
			e.stretchRunning(p.w, startAt, end)
		}
		if e.obs != nil {
			e.obs.StallEnd(p.w, p.id, StallCollective, g.arriveAt[k], startAt)
			e.obs.CollectiveFired(p.w, p.id, e.headOp(p), key, startAt, end)
		}
		e.push(simEvent{t: end, kind: evCollDone, st: p, arg: startAt})
	}
	e.recycleColl(g)
}

// dropActiveColl removes one finished collective interval from the
// worker's active list.
func (e *Engine) dropActiveColl(w int, cs, ce int64) {
	list := e.activeColls[w]
	for i := range list {
		if list[i].start == cs && list[i].end == ce {
			list[i] = list[len(list)-1]
			e.activeColls[w] = list[:len(list)-1]
			return
		}
	}
}
