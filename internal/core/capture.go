package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"maya/internal/estimator"
	"maya/internal/netsim"
	"maya/internal/pool"
	"maya/internal/sim"
	"maya/internal/trace"
)

// Capture is the durable artifact of the pipeline's expensive front
// half: one emulation plus collation of a workload on a cluster. It
// holds the collated job trace, the communicator membership
// (supplemented by workload configuration knowledge), the dedup
// accounting, and the peak-memory / OOM verdict.
//
// A capture is immutable once built: a replay reads durations from a
// capture-attached estimate plan and addresses the engine's wait maps
// through the capture's compiled index, both shared read-only, so one
// capture can feed any number of predictions (learned, oracle, netsim,
// physical replay) without re-paying emulation or collation. Captures
// serialize with WriteTo and load with ReadCapture.
//
// Pipeline.Capture's traces live in the emulator's recording buffers
// until its one owner calls Release, or Keep copies them out into
// storage of their own for a capture that is cached, shared or handed
// out; DESIGN.md's "Capture lifetime" says who does which. A loaded
// capture (ReadCapture) owns its storage already.
type Capture struct {
	// Workload and Cluster identify what was captured where.
	Workload string
	Cluster  string
	// Topology records the topo.ByName fabric spec the prediction ran
	// against ("" means the cluster's canonical auto topology).
	// Provenance only: the trace itself is topology-independent, so a
	// reloaded capture can be re-simulated against any fabric.
	Topology string
	// TotalWorkers is the job's world size; UniqueWorkers counts the
	// ranks actually emulated after dedup / selective launch.
	TotalWorkers  int
	UniqueWorkers int
	// Job is the collated trace: device durations unannotated, each op
	// carrying its measured host gap. Nil when the capture ended in OOM.
	Job *trace.Job
	// Comms and CommSizes map communicator IDs to member global ranks
	// and declared sizes — trace-derived, supplemented by the
	// workload's own group knowledge for selectively launched jobs.
	Comms     map[uint64][]int
	CommSizes map[uint64]int
	// Participants is nil on every capture: the engine counts each
	// collective call's joins from Job itself when
	// sim.Options.Participants is nil. The field remains only for the
	// benchmark harness, which still passes it to the engine.
	Participants map[trace.CollKey]int
	// PeakMemBytes is the largest per-device allocator high-water
	// mark; OOM marks configurations that exceeded device memory.
	PeakMemBytes int64
	OOM          bool
	// RankEmulations counts every rank emulation this capture paid,
	// deduplication probes included — the accounting that makes
	// dedup wins measurable (a selectively launched hyperscale capture
	// emulates one rank per pipeline stage, the probe every rank).
	RankEmulations int
	// EmulateTime and CollateTime record what this capture cost, so
	// reuse wins are measurable (Fig. 13-style stage accounting).
	EmulateTime time.Duration
	CollateTime time.Duration

	// derived memoizes what is computed from this capture on demand and
	// reused by every later replay (derivedOnce creates it on first
	// use): the estimate plan per timer (see planFor) and the
	// congestion demand map per netsim model (see congestionFor), each
	// keyed by the identity of what priced it. Runtime-only state: it
	// never serializes and a reloaded capture rebuilds on first use.
	// The memo is bounded (maxDerivedPerCapture, least recently used
	// out first): suite pointers go stale when the estimator cache
	// retrains, and a long-lived capture must not pin every suite it
	// ever simulated against.
	derivedOnce sync.Once
	derived     *Memo[any, any]

	// indexOnce builds index, the job compiled for the engine
	// (sim.Compile over Job, counting its own joins), on the first replay;
	// every later replay shares it. Runtime-only like derived, but not
	// in it: it depends on nothing a replay chooses, so it is never
	// evicted. indexed is set once index is.
	indexOnce sync.Once
	index     *sim.Index
	indexed   atomic.Bool

	// release recycles the recordings the capture's traces are sealed
	// in; nil once they own their storage (kept, released or loaded).
	release func()
}

// Release recycles the recording buffers the capture's traces live
// in, and does nothing on a kept or loaded capture. Call it once no
// replay of the capture runs; from then on its job holds no ops, and
// nothing may keep one of its ops or Collectives. It is not safe to
// call concurrently with itself.
func (c *Capture) Release() {
	if release := c.release; release != nil {
		c.release = nil
		release()
	}
}

// Keep copies the capture's traces out of the recording buffers they
// were sealed in, each worker into storage sized exactly to its ops
// (trace.Worker.Compact), and releases the recordings, so the capture
// may be cached, serialized or held for as long as the caller likes;
// Release then does nothing. Call it before the capture's first
// replay and before anything else can see it. On a kept, released or
// loaded capture it does nothing.
func (c *Capture) Keep() {
	if c.release == nil {
		return
	}
	workers := c.Job.Workers
	// Every copy must finish before the release, so no caller's
	// context cancels it; Compact returns no error, so one is a panic
	// in it, raised again.
	if err := pool.Each(context.Background(), len(workers), runtime.GOMAXPROCS(0), func(_, i int) error {
		workers[i] = workers[i].Compact()
		return nil
	}); err != nil {
		panic(err)
	}
	c.Release()
}

// simIndex returns the capture's job compiled for the engine, built
// on first use.
func (c *Capture) simIndex() *sim.Index {
	c.indexOnce.Do(func() {
		c.index = sim.Compile(c.Job, nil)
		c.indexed.Store(true)
	})
	return c.index
}

// prepare returns the capture's estimate plan for the timer, with the
// capture's index compiled. Until the index is, the plan build and the
// compile run side by side, neither needing the other; after that it
// is planFor.
func (c *Capture) prepare(ctx context.Context, t trace.Timer) (*estimator.EstimatePlan, error) {
	if c.indexed.Load() {
		return c.planFor(ctx, t)
	}
	var plan *estimator.EstimatePlan
	err := pool.Each(ctx, 2, 2, func(_, i int) (err error) {
		if i == 0 {
			plan, err = c.planFor(ctx, t)
		} else {
			c.simIndex()
		}
		return err
	})
	return plan, err
}

// maxDerivedPerCapture bounds how many derived artefacts one capture
// retains. Real callers use a handful of identities per capture (the
// learned suite and its netsim view, the oracle, one netsim model);
// the bound only matters when estimator-cache evictions mint fresh
// suites repeatedly.
const maxDerivedPerCapture = 8

// derive returns the capture's artefact for key, building it on first
// use: single-flight per (capture, key) pair, and a cancelled or
// failed build is dropped so the next lookup retries. An evicted
// artefact stays valid for whoever already holds it; a future lookup
// of that key just rebuilds.
func derive[V any](ctx context.Context, c *Capture, key any, build func() (V, error)) (V, error) {
	c.derivedOnce.Do(func() { c.derived = NewMemo[any, any](maxDerivedPerCapture) })
	v, _, err := c.derived.Get(ctx, key, func() (any, error) { return build() })
	out, _ := v.(V) // a failed build leaves v nil: the zero V
	return out, err
}

// planFor returns the capture's estimate plan for the timer — a
// learned suite or the silicon oracle alike: the job fully annotated
// once, so later replays against the same timer read its overlay in
// place instead of re-pricing every op.
func (c *Capture) planFor(ctx context.Context, t trace.Timer) (*estimator.EstimatePlan, error) {
	return derive(ctx, c, t, func() (*estimator.EstimatePlan, error) {
		return estimator.BuildPlan(ctx, c.Job, c.Comms, c.CommSizes, t)
	})
}

// congestionFor returns the capture's congestion demand map priced by
// the given netsim model. The map assigns every collective call its
// link footprint and latency split from the model's
// cheapest-algorithm plan; the sim engine then resolves
// concurrently-active footprints against link widths.
func (c *Capture) congestionFor(ctx context.Context, m *netsim.Model) (*sim.CongestionModel, error) {
	return derive(ctx, c, m, func() (*sim.CongestionModel, error) { return c.buildCongestion(ctx, m) })
}

// buildCongestion walks the collated trace once, planning each
// distinct collective call on the model's topology to record which
// link domains it occupies and how much of its duration is latency.
// Calls the model cannot place (empty footprint) are simply left out
// of the map and replay at their fixed annotated duration.
// Cancellation of ctx is observed between workers.
func (c *Capture) buildCongestion(ctx context.Context, m *netsim.Model) (*sim.CongestionModel, error) {
	demands := make(map[trace.CollKey]sim.CollDemand)
	resolve := trace.RankResolver(c.Job, c.Comms, c.CommSizes)
	for _, w := range c.Job.Workers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind != trace.KindCollective || op.Coll.Seq < 0 {
				continue
			}
			key := trace.CollKeyOf(op)
			if _, ok := demands[key]; ok {
				continue
			}
			cl := op.Coll
			ranks := resolve(w, cl)
			n := cl.NRanks
			if cl.Peer >= 0 {
				// Point-to-point: the footprint is the two endpoints, not
				// the whole communicator.
				if cl.Rank >= len(ranks) || cl.Peer >= len(ranks) {
					continue
				}
				ranks = []int{ranks[cl.Rank], ranks[cl.Peer]}
				n = 2
			}
			est := m.Plan(cl.Op, cl.Bytes, ranks, n)
			if len(est.Links) == 0 {
				continue
			}
			demands[key] = sim.CollDemand{Links: est.Links, Lat: est.Lat.Nanoseconds()}
		}
	}
	return &sim.CongestionModel{Widths: m.Topology().LinkWidths(), Demands: demands}, nil
}

// baseReport starts a Report with everything the capture already
// knows; stage timings are left zero for the caller to fill.
func (c *Capture) baseReport() *Report {
	return &Report{
		Workload:      c.Workload,
		Cluster:       c.Cluster,
		TotalWorkers:  c.TotalWorkers,
		UniqueWorkers: c.UniqueWorkers,
		PeakMemBytes:  c.PeakMemBytes,
		OOM:           c.OOM,
	}
}

// TraceFormatVersion is the serialization version WriteTo emits: a
// binary payload whose ops are device calls, each carrying the host
// time before it. ReadCapture reads it and the versions earlier builds
// wrote: 1, a JSON payload, and 2, the binary payload with host
// delays, mallocs and frees as ops of their own; both fold those into
// the ops' host gaps on load. Bump it on any incompatible payload
// change.
const TraceFormatVersion = 3

// Earlier versions ReadCapture reads: traceFormatJSON's payload is
// capturePayload's JSON, traceFormatV2's the binary form before host
// time folded into ops.
const (
	traceFormatJSON = 1
	traceFormatV2   = 2
)

// traceHeaderLen is the envelope's header: magic, version and length.
const traceHeaderLen = len(traceMagic) + 2 + 8

// Serialization errors, matchable with errors.Is.
var (
	// ErrTraceFormat marks input that is not a Maya trace or is
	// corrupt (bad magic, checksum mismatch, malformed payload).
	ErrTraceFormat = errors.New("malformed maya trace")
	// ErrTraceVersion marks a trace written by an incompatible
	// format version.
	ErrTraceVersion = errors.New("unsupported maya trace version")
)

// traceMagic opens every serialized capture.
var traceMagic = [6]byte{'M', 'A', 'Y', 'A', 'T', 'R'}

// capturePayload is the JSON body of a version-1 capture.
type capturePayload struct {
	Workload      string           `json:"workload"`
	Cluster       string           `json:"cluster"`
	Topology      string           `json:"topology,omitempty"`
	TotalWorkers  int              `json:"total_workers"`
	UniqueWorkers int              `json:"unique_workers"`
	Job           *trace.JobJSON   `json:"job,omitempty"`
	Comms         map[uint64][]int `json:"comms,omitempty"`
	CommSizes     map[uint64]int   `json:"comm_sizes,omitempty"`
	PeakMemBytes  int64            `json:"peak_mem_bytes"`
	OOM           bool             `json:"oom,omitempty"`
	EmulateNS     int64            `json:"emulate_ns"`
	CollateNS     int64            `json:"collate_ns"`
	RankEmuls     int              `json:"rank_emulations,omitempty"`
}

// Flags of a binary capture payload.
const (
	captureOOM = 1 << iota
	// captureClassHinted marked captures of a capture route that no
	// longer exists; it is accepted on read and ignored.
	captureClassHinted
	captureHasJob
)

// WriteTo serializes the capture: a fixed header (magic, big-endian
// uint16 format version, uint64 payload length), the binary payload,
// and a trailing FNV-1a checksum of the payload. The payload is the
// capture's scalar fields as varints and length-prefixed strings, its
// flags, Comms and CommSizes in key order, then the job in
// trace.Encoder's form; its bytes are a function of the capture's
// content. It implements io.WriterTo.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	e := trace.Encoder{B: make([]byte, traceHeaderLen)}
	if err := c.encode(&e); err != nil {
		return 0, fmt.Errorf("core: encoding capture: %w", err)
	}
	b := e.B
	payload := b[traceHeaderLen:]
	copy(b, traceMagic[:])
	binary.BigEndian.PutUint16(b[len(traceMagic):], TraceFormatVersion)
	binary.BigEndian.PutUint64(b[len(traceMagic)+2:], uint64(len(payload)))
	b = binary.BigEndian.AppendUint64(b, payloadSum(payload))
	n, err := w.Write(b)
	return int64(n), err
}

func (c *Capture) encode(e *trace.Encoder) error {
	e.Str(c.Workload)
	e.Str(c.Cluster)
	e.Str(c.Topology)
	for _, v := range [...]int64{int64(c.TotalWorkers), int64(c.UniqueWorkers), c.PeakMemBytes,
		int64(c.EmulateTime), int64(c.CollateTime), int64(c.RankEmulations)} {
		e.Varint(v)
	}
	var flags byte
	if c.OOM {
		flags |= captureOOM
	}
	if c.Job != nil {
		flags |= captureHasJob
	}
	e.Byte(flags)
	e.Len(len(c.Comms), c.Comms == nil)
	for _, id := range slices.Sorted(maps.Keys(c.Comms)) {
		members := c.Comms[id]
		e.Uvarint(id)
		e.Len(len(members), members == nil)
		for _, r := range members {
			e.Varint(int64(r))
		}
	}
	e.Len(len(c.CommSizes), c.CommSizes == nil)
	for _, id := range slices.Sorted(maps.Keys(c.CommSizes)) {
		e.Uvarint(id)
		e.Varint(int64(c.CommSizes[id]))
	}
	if c.Job == nil {
		return nil
	}
	return e.Job(c.Job)
}

// ReadCapture parses a capture produced by WriteTo, or by an earlier
// build's version-1 or -2 WriteTo. It rejects non-trace input
// (ErrTraceFormat), other versions (ErrTraceVersion), and reports
// truncation as io.ErrUnexpectedEOF.
func ReadCapture(r io.Reader) (*Capture, error) {
	var header [traceHeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: reading trace header: %w", err)
	}
	if !bytes.Equal(header[:len(traceMagic)], traceMagic[:]) {
		return nil, fmt.Errorf("core: %w: bad magic", ErrTraceFormat)
	}
	version := binary.BigEndian.Uint16(header[len(traceMagic):])
	if version != TraceFormatVersion && version != traceFormatV2 && version != traceFormatJSON {
		return nil, fmt.Errorf("core: %w: trace is v%d, this build reads v%d to v%d",
			ErrTraceVersion, version, traceFormatJSON, TraceFormatVersion)
	}
	size := binary.BigEndian.Uint64(header[len(traceMagic)+2:])
	const maxPayload = 1 << 34 // 16 GiB: far beyond any real trace
	if size > maxPayload {
		return nil, fmt.Errorf("core: %w: implausible payload size %d", ErrTraceFormat, size)
	}
	// Grow the buffer as bytes arrive rather than trusting the header
	// length up front: a crafted size field must fail at EOF, not
	// allocate gigabytes first.
	var payloadBuf bytes.Buffer
	if _, err := io.CopyN(&payloadBuf, r, int64(size)); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: reading trace payload: %w", err)
	}
	payload := payloadBuf.Bytes()
	var sumBuf [8]byte
	if _, err := io.ReadFull(r, sumBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: reading trace checksum: %w", err)
	}
	if got, want := binary.BigEndian.Uint64(sumBuf[:]), payloadSum(payload); got != want {
		return nil, fmt.Errorf("core: %w: checksum mismatch", ErrTraceFormat)
	}
	var c *Capture
	var err error
	if version == traceFormatJSON {
		c, err = decodeCaptureJSON(payload)
	} else {
		c, err = decodeCapture(payload, version == traceFormatV2)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", ErrTraceFormat, err)
	}
	if c.Job != nil {
		// A well-formed envelope can still carry a hostile payload:
		// JSON null decodes into a nil worker, and either form can hold
		// a collective without its metadata, which every consumer of the
		// job (starting with the replay's compile) would trip over.
		for i, w := range c.Job.Workers {
			if w == nil {
				return nil, fmt.Errorf("core: %w: null worker at index %d", ErrTraceFormat, i)
			}
			if err := validateOps(w); err != nil {
				return nil, fmt.Errorf("core: %w: worker at index %d: %v", ErrTraceFormat, i, err)
			}
		}
	}
	return c, nil
}

// decodeCapture decodes the binary payload WriteTo writes, or with v2
// set the version-2 payload. Every count is bounded by the bytes left
// before anything is allocated for it.
func decodeCapture(payload []byte, v2 bool) (*Capture, error) {
	d := trace.NewDecoder(payload)
	c := &Capture{
		Workload:       d.Str(),
		Cluster:        d.Str(),
		Topology:       d.Str(),
		TotalWorkers:   d.Int(),
		UniqueWorkers:  d.Int(),
		PeakMemBytes:   d.Varint(),
		EmulateTime:    time.Duration(d.Varint()),
		CollateTime:    time.Duration(d.Varint()),
		RankEmulations: d.Int(),
	}
	flags := d.Byte()
	if flags&^(captureOOM|captureClassHinted|captureHasJob) != 0 {
		return nil, fmt.Errorf("unknown capture flags %#x", flags)
	}
	c.OOM = flags&captureOOM != 0
	if n, isNil := d.Len(2); !isNil {
		c.Comms = make(map[uint64][]int, n)
		for ; n > 0; n-- {
			id := d.Uvarint()
			var members []int
			if m, isNil := d.Len(1); !isNil {
				members = make([]int, m)
				for i := range members {
					members[i] = d.Int()
				}
			}
			c.Comms[id] = members
		}
	}
	if n, isNil := d.Len(2); !isNil {
		c.CommSizes = make(map[uint64]int, n)
		for ; n > 0; n-- {
			id := d.Uvarint()
			c.CommSizes[id] = d.Int()
		}
	}
	if flags&captureHasJob != 0 {
		if v2 {
			c.Job = d.JobV2()
		} else {
			c.Job = d.Job()
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return c, nil
}

// decodeCaptureJSON decodes a version-1 payload.
func decodeCaptureJSON(payload []byte) (*Capture, error) {
	var p capturePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	c := &Capture{
		Workload:       p.Workload,
		Cluster:        p.Cluster,
		Topology:       p.Topology,
		TotalWorkers:   p.TotalWorkers,
		UniqueWorkers:  p.UniqueWorkers,
		Comms:          p.Comms,
		CommSizes:      p.CommSizes,
		PeakMemBytes:   p.PeakMemBytes,
		OOM:            p.OOM,
		EmulateTime:    time.Duration(p.EmulateNS),
		CollateTime:    time.Duration(p.CollateNS),
		RankEmulations: p.RankEmuls,
	}
	if p.Job != nil {
		job, err := p.Job.Job()
		if err != nil {
			return nil, err
		}
		c.Job = job
	}
	return c, nil
}

// validateOps checks what every consumer of a loaded trace assumes of
// its ops without looking: a collective carries its metadata, and its
// rank and peer index the communicator (the emulator and nccl layer
// guarantee both for a recorded trace).
func validateOps(w *trace.Worker) error {
	for i := range w.Ops {
		op := &w.Ops[i]
		if op.Kind != trace.KindCollective {
			continue
		}
		c := op.Coll
		if c == nil {
			return fmt.Errorf("op %d: collective without coll", i)
		}
		if c.Rank < 0 || c.Rank >= c.NRanks || c.Peer < -1 || c.Peer >= c.NRanks {
			return fmt.Errorf("op %d: rank %d, peer %d outside a communicator of %d", i, c.Rank, c.Peer, c.NRanks)
		}
	}
	return nil
}

func payloadSum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}
