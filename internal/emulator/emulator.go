// Package emulator implements Maya's transparent device emulator: a
// cuda.Device whose compute is a no-op but whose state tracking is
// real. Training code runs against it unmodified; the emulator
// captures a complete trace of device interactions — kernels, copies,
// synchronization and collectives — each carrying the host time spent
// since the call before it, while detecting the errors a real device
// would raise (out-of-memory, invalid handles).
package emulator

import (
	"fmt"
	"sync"
	"time"

	"maya/internal/cuda"
	"maya/internal/hardware"
	"maya/internal/prand"
	"maya/internal/trace"
)

// Config configures one emulated worker.
type Config struct {
	// Rank is the worker's global rank; World the job size.
	Rank  int
	World int
	// GPU provides the memory capacity the allocator enforces.
	GPU hardware.GPU
	// Host provides the deterministic host-overhead model that stands
	// in for the paper's wall-clock measurement between API calls.
	Host hardware.Host
	// Seed perturbs host-delay jitter so distinct workers (and
	// distinct experiments) do not share identical noise.
	Seed uint64
}

// Emulator implements cuda.Device by recording instead of executing.
// It is not safe for concurrent use: like a CUDA context, each worker
// owns exactly one.
type Emulator struct {
	cfg Config
	// tr is the trace so far, its Ops in rec's pooled buffer until
	// Release gives rec back.
	tr  *trace.Worker
	rec *recording
	rng *prand.SplitMix64
	// gap is the host time modeled since the last recorded op: the
	// next op carries it as its HostGap, and Trace seals what is
	// pending past the last op as the trace's TailGap.
	gap time.Duration
	// shapes interns every kernel and memcpy shape this worker
	// launches: the trace holds one Shape per distinct shape.
	shapes trace.Shapes

	mem allocator
	// Streams are never destroyed: the valid handles are the default
	// stream and 1..nextStream.
	nextStream int64
	events     map[cuda.Event]int // handle -> record version (0 = never)
	nextEvent  int64
}

var _ cuda.Device = (*Emulator)(nil)

// recording is the scratch one rank records into: the op buffer
// behind the unsealed trace plus the slab its Coll pointers point
// into. Capacity survives from rank to rank through the pool, so a
// warm rank allocates no op storage: a trace is sealed in place
// (Trace) and its scratch pooled again by Release.
type recording struct {
	ops   []trace.Op         // zero over its full capacity while pooled
	colls []trace.Collective // zero over its full capacity while pooled
}

var recordings = sync.Pool{New: func() any { return new(recording) }}

// New returns an emulator for one worker.
func New(cfg Config) *Emulator {
	rec := recordings.Get().(*recording)
	e := &Emulator{
		cfg: cfg,
		rec: rec,
		tr: &trace.Worker{
			Rank:   cfg.Rank,
			World:  cfg.World,
			Device: cfg.GPU.Name,
			Ops:    rec.ops[:0],
		},
		rng:    prand.New(prand.HashInts(cfg.Seed, int64(cfg.Rank), 0x5eed)),
		events: make(map[cuda.Event]int),
	}
	e.mem.capacity = cfg.GPU.MemBytes
	e.mem.blocks = make(map[cuda.DevicePtr]int64)
	return e
}

// Trace returns the captured worker trace, sealed in place: its ops
// stay in the recording scratch they were recorded into, not copied,
// and their Coll point into the scratch's collective slab; its device
// ops point to this emulator's interned shapes, which are immutable.
// Calling it again returns the same worker. Trace ends the recording:
// launch nothing on the emulator after it. A trace that must outlive
// the recording is copied out with trace.Worker.Compact before
// Release.
func (e *Emulator) Trace() *trace.Worker {
	e.tr.PeakBytes, e.tr.TailGap = e.mem.peak, e.gap
	return e.tr
}

// Release clears the recording scratch and pools it for the next
// rank. From then on the worker Trace returned holds no ops, and
// nothing may keep an op of it or its Coll; the emulator must not be
// used again. Calling it again does nothing.
func (e *Emulator) Release() {
	if r := e.rec; r != nil {
		e.rec = nil
		clear(e.tr.Ops)
		clear(r.colls)
		r.ops, r.colls = e.tr.Ops[:0], r.colls[:0]
		e.tr.Ops = nil
		recordings.Put(r)
	}
}

// record adds an op of kind k on stream s to the trace, carrying the
// host time pending since the op before it, and returns it for the
// caller to fill in the rest in place.
func (e *Emulator) record(k trace.Kind, s cuda.Stream) *trace.Op {
	op := e.tr.Next()
	op.Kind, op.Stream, op.HostGap, e.gap = k, int64(s), e.gap, 0
	return op
}

// hostDelay adds the modeled CPU time preceding an API call to the
// gap the next recorded op carries. The paper measures wall-clock
// deltas; we synthesize them deterministically from the host spec
// (see DESIGN.md substitutions).
func (e *Emulator) hostDelay(kernelPrep bool) {
	h := e.cfg.Host
	d := h.DispatchOverhead
	if kernelPrep {
		d += h.KernelPrepOverhead
	}
	if h.JitterFrac > 0 && d > 0 {
		// Uniform jitter in [-JitterFrac, +JitterFrac].
		j := (e.rng.Float64()*2 - 1) * h.JitterFrac
		d = time.Duration(float64(d) * (1 + j))
	}
	if d > 0 {
		e.gap += d
	}
}

// MemGetInfo implements cuda.Device, answering from tracked
// allocations so framework memory heuristics behave as on hardware.
func (e *Emulator) MemGetInfo() (free, total int64, err error) {
	e.hostDelay(false)
	return e.mem.capacity - e.mem.used, e.mem.capacity, nil
}

// Malloc implements cuda.Device. Exceeding capacity returns
// ErrOutOfMemory and marks the trace, which is how broken
// configurations surface during search. It records no op: the trace
// keeps the allocator's high-water mark and the OOM flag.
func (e *Emulator) Malloc(bytes int64) (cuda.DevicePtr, error) {
	e.hostDelay(false)
	if bytes <= 0 {
		return 0, fmt.Errorf("%w: malloc of %d bytes", cuda.ErrInvalidValue, bytes)
	}
	ptr, err := e.mem.alloc(bytes)
	if err != nil {
		e.tr.OOM = true
		return 0, err
	}
	return ptr, nil
}

// Free implements cuda.Device. Like Malloc it records no op.
func (e *Emulator) Free(ptr cuda.DevicePtr) error {
	e.hostDelay(false)
	return e.mem.free(ptr)
}

// StreamCreate implements cuda.Device.
func (e *Emulator) StreamCreate() (cuda.Stream, error) {
	e.hostDelay(false)
	e.nextStream++
	return cuda.Stream(e.nextStream), nil
}

// EventCreate implements cuda.Device.
func (e *Emulator) EventCreate() (cuda.Event, error) {
	e.hostDelay(false)
	e.nextEvent++
	ev := cuda.Event(e.nextEvent)
	e.events[ev] = 0
	return ev, nil
}

// EventRecord implements cuda.Device, bumping the event's version so
// later waits bind to this record, mirroring CUDA event reuse.
func (e *Emulator) EventRecord(ev cuda.Event, s cuda.Stream) error {
	e.hostDelay(false)
	ver, ok := e.events[ev]
	if !ok {
		return fmt.Errorf("%w: event %d", cuda.ErrInvalidHandle, ev)
	}
	if err := e.checkStream(s); err != nil {
		return err
	}
	ver++
	e.events[ev] = ver
	op := e.record(trace.KindEventRecord, s)
	op.Event, op.EventVer = int64(ev), ver
	return nil
}

// StreamWaitEvent implements cuda.Device, capturing the version the
// wait observed (0 means never recorded: a no-op, per CUDA).
func (e *Emulator) StreamWaitEvent(s cuda.Stream, ev cuda.Event) error {
	e.hostDelay(false)
	ver, ok := e.events[ev]
	if !ok {
		return fmt.Errorf("%w: event %d", cuda.ErrInvalidHandle, ev)
	}
	if err := e.checkStream(s); err != nil {
		return err
	}
	op := e.record(trace.KindStreamWait, s)
	op.Event, op.EventVer = int64(ev), ver
	return nil
}

// DeviceSynchronize implements cuda.Device (host-blocking).
func (e *Emulator) DeviceSynchronize() error {
	e.hostDelay(false)
	e.record(trace.KindDeviceSync, cuda.DefaultStream)
	return nil
}

// MemcpyAsync implements cuda.Device. Device-side pointers are
// validated against live allocations; host pointers are represented
// by 0 and resolved via the transfer kind, the ambiguity resolution
// the paper describes for offloading workloads.
func (e *Emulator) MemcpyAsync(dst, src cuda.DevicePtr, bytes int64, kind cuda.MemcpyKind, s cuda.Stream) error {
	e.hostDelay(true)
	if bytes < 0 {
		return fmt.Errorf("%w: memcpy of %d bytes", cuda.ErrInvalidValue, bytes)
	}
	if err := e.checkStream(s); err != nil {
		return err
	}
	switch kind {
	case cuda.MemcpyHostToDevice:
		if err := e.mem.check(dst, bytes); err != nil {
			return err
		}
	case cuda.MemcpyDeviceToHost:
		if err := e.mem.check(src, bytes); err != nil {
			return err
		}
	case cuda.MemcpyDeviceToDevice:
		if err := e.mem.check(dst, bytes); err != nil {
			return err
		}
		if err := e.mem.check(src, bytes); err != nil {
			return err
		}
	}
	shape := e.shapes.Intern(trace.KindMemcpy, &trace.Shape{Name: "Memcpy" + kind.String(), Bytes: bytes, MemKind: kind.String()})
	op := e.record(trace.KindMemcpy, s)
	op.Name, op.Bytes, op.Shape = shape.Name, bytes, shape
	return nil
}

// LaunchKernel implements cuda.Device: the no-op transformation. The
// kernel's metadata is recorded, nothing executes. Its shape is
// interned at the launch, so the caller may reuse and mutate k.Dims
// and k.Extra afterwards.
func (e *Emulator) LaunchKernel(k cuda.KernelDesc, s cuda.Stream) error {
	e.hostDelay(true)
	if err := k.Validate(); err != nil {
		return err
	}
	if err := e.checkStream(s); err != nil {
		return err
	}
	shape := e.shapes.Intern(trace.KindKernel, &trace.Shape{
		Name: k.Name, Dims: k.Dims, Bytes: k.Bytes, FLOPs: k.FLOPs, DType: k.DType, Extra: k.Extra,
	})
	op := e.record(trace.KindKernel, s)
	op.Name, op.Bytes, op.Shape = shape.Name, k.Bytes, shape
	return nil
}

// LaunchCollective implements cuda.Device.
func (e *Emulator) LaunchCollective(c cuda.CollectiveDesc, s cuda.Stream) error {
	e.hostDelay(true)
	if c.NRanks <= 0 || c.Rank < 0 || c.Rank >= c.NRanks {
		return fmt.Errorf("%w: collective %s rank %d of %d", cuda.ErrInvalidValue, c.Op, c.Rank, c.NRanks)
	}
	if err := e.checkStream(s); err != nil {
		return err
	}
	r := e.rec
	r.colls = append(r.colls, trace.Collective{
		Op:     c.Op,
		CommID: c.CommID,
		Seq:    c.Seq,
		NRanks: c.NRanks,
		Rank:   c.Rank,
		Peer:   c.Peer,
		Bytes:  c.Bytes,
	})
	op := e.record(trace.KindCollective, s)
	op.Name, op.Bytes, op.Coll = c.Op, c.Bytes, &r.colls[len(r.colls)-1]
	return nil
}

// Mark implements cuda.Device, inserting an annotation op.
func (e *Emulator) Mark(label string) error {
	e.record(trace.KindMark, cuda.DefaultStream).Name = label
	return nil
}

func (e *Emulator) checkStream(s cuda.Stream) error {
	if s < cuda.DefaultStream || int64(s) > e.nextStream {
		return fmt.Errorf("%w: stream %d", cuda.ErrInvalidHandle, s)
	}
	return nil
}

// allocator tracks device memory: a bump allocator with explicit
// frees, a live-byte counter and a high-water mark. Addresses are
// never reused, so stale-pointer bugs in workloads are caught.
type allocator struct {
	capacity int64
	used     int64
	peak     int64
	next     uint64
	blocks   map[cuda.DevicePtr]int64
}

func (a *allocator) alloc(bytes int64) (cuda.DevicePtr, error) {
	if a.used+bytes > a.capacity {
		return 0, fmt.Errorf("%w: requested %d, in use %d of %d",
			cuda.ErrOutOfMemory, bytes, a.used, a.capacity)
	}
	// 512-byte alignment, like the CUDA allocator.
	a.next += 512
	ptr := cuda.DevicePtr(a.next)
	a.next += uint64(bytes)
	a.blocks[ptr] = bytes
	a.used += bytes
	if a.used > a.peak {
		a.peak = a.used
	}
	return ptr, nil
}

func (a *allocator) free(ptr cuda.DevicePtr) error {
	n, ok := a.blocks[ptr]
	if !ok {
		return fmt.Errorf("%w: %#x", cuda.ErrInvalidDevicePtr, uint64(ptr))
	}
	delete(a.blocks, ptr)
	a.used -= n
	return nil
}

// check validates that [ptr, ptr+bytes) lies inside a live block.
func (a *allocator) check(ptr cuda.DevicePtr, bytes int64) error {
	if ptr == 0 {
		// Host pointer stand-in; nothing to validate device-side.
		return nil
	}
	if n, ok := a.blocks[ptr]; ok {
		if bytes > n {
			return fmt.Errorf("%w: access of %d bytes in %d-byte block", cuda.ErrInvalidDevicePtr, bytes, n)
		}
		return nil
	}
	return fmt.Errorf("%w: %#x", cuda.ErrInvalidDevicePtr, uint64(ptr))
}
