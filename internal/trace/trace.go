// Package trace defines Maya's execution-trace model: the sequence of
// device-API operations each worker performed during emulation, and
// the merged job-level view the simulator consumes.
//
// A trace is the contract between every stage of the pipeline. The
// emulator produces per-worker traces; the collator merges and
// deduplicates them; the estimator annotates kernel durations; the
// simulator replays the result. A job serializes to a compact binary
// form (Encoder, Decoder) that captures are archived and shipped in;
// JobJSON reads the JSON form earlier releases wrote, matching the
// paper's example
// `{"events":[{"dev":"gpu0-stream0","op":"cublasSgemm_v2"}, ...]}`.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Kind discriminates trace operations.
type Kind uint8

// Operation kinds captured by the emulator: the device calls a trace
// records. Host time between calls is not an op; it rides on the next
// op as its HostGap.
const (
	KindKernel      Kind = iota // compute kernel launch
	KindMemcpy                  // cudaMemcpyAsync
	KindMemset                  // cudaMemsetAsync
	kindMalloc                  // legacy cudaMalloc record, folded on load
	kindFree                    // legacy cudaFree record, folded on load
	KindEventRecord             // cudaEventRecord
	KindStreamWait              // cudaStreamWaitEvent
	KindEventSync               // cudaEventSynchronize (host blocks)
	KindStreamSync              // cudaStreamSynchronize (host blocks)
	KindDeviceSync              // cudaDeviceSynchronize (host blocks)
	KindCollective              // NCCL collective or P2P operation
	kindHostDelay               // legacy host-delay record, folded on load
	KindMark                    // iteration / phase boundary marker
)

var kindNames = [...]string{
	"kernel", "memcpy", "memset", "malloc", "free",
	"eventRecord", "streamWaitEvent", "eventSync", "streamSync",
	"deviceSync", "collective", "hostDelay", "mark",
}

// legacy reports whether k is a host-only kind that traces written
// before version 3 recorded as ops of their own: the readers fold them
// into the next op's HostGap, and no trace in memory holds one.
func (k Kind) legacy() bool {
	return k == kindMalloc || k == kindFree || k == kindHostDelay
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// UnmarshalJSON decodes a kind name, the legacy host-only names
// included: JobJSON.Job folds those records away.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown op kind %q", s)
}

// Collective carries the distributed-dependency metadata of a NCCL
// operation. CommID plus Seq is the global matching key the collator
// and the simulator's collective wait map use.
type Collective struct {
	Op     string `json:"op"`     // "ncclAllReduce", "ncclSend", ...
	CommID uint64 `json:"comm"`   // communicator identity (global)
	Seq    int    `json:"seq"`    // per-communicator call index
	NRanks int    `json:"nranks"` // participants in the communicator
	Rank   int    `json:"rank"`   // caller's rank within the communicator
	Peer   int    `json:"peer"`   // peer rank for send/recv, -1 otherwise
	Bytes  int64  `json:"bytes"`  // payload size
}

// Op is one traced device-API call. It is 80 bytes: a kernel, memcpy
// or memset keeps its shape behind one pointer (Shape), so the events,
// syncs and marks that make up much of a trace carry no kernel fields
// at all. An op is identified by its position in its worker's Ops, and
// it records what was called, not how long it took: durations live in
// an Annotations overlay addressed by that position.
type Op struct {
	Kind   Kind   // discriminator
	Stream int64  // issuing stream handle
	Name   string // kernel or API name
	Bytes  int64  // bytes moved or communicated

	// Shape is the interned identity of a kernel, memcpy or memset (see
	// Shape); nil for every other kind.
	Shape *Shape

	// HostGap is the modeled host CPU time spent since the previous
	// op (or the start of the trace) before this call was issued: the
	// time between API calls, including calls that record no op
	// (allocations, frees, handle creation).
	HostGap time.Duration

	// Event metadata. EventVer is the record-count of the event at the
	// time of the call; stream waits capture the version they saw.
	Event    int64
	EventVer int

	Coll *Collective
}

// IsDeviceWork reports whether the op occupies a device stream for a
// non-zero duration and therefore needs a runtime estimate.
func (o *Op) IsDeviceWork() bool {
	switch o.Kind {
	case KindKernel, KindMemcpy, KindMemset, KindCollective:
		return true
	}
	return false
}

// Worker is the trace of one emulated rank.
type Worker struct {
	Rank      int
	Device    string // GPU model name
	World     int    // total ranks in the job
	Ops       []Op
	PeakBytes int64 // allocator high-water mark
	OOM       bool  // allocation exceeded capacity
	// TailGap is the host time spent after the last op: calls at the
	// end of the run that record nothing, such as frees.
	TailGap time.Duration
}

// minOpsCap is the op capacity a worker's first Next allocates.
const minOpsCap = 64

// Append adds an op.
func (w *Worker) Append(op Op) { *w.Next() = op }

// Next adds an op and returns it, for the caller to fill in place. The
// op is the buffer's next slot as it stands, not cleared again: it is
// zero when Ops is zero past its length, as a fresh or grown buffer
// is, and as the emulator clears its scratch before reuse. A full
// buffer doubles: an Op is 80 bytes and holds pointers, so the
// runtime's 1.25x growth past 256 elements would allocate, clear and
// copy a long trace several times over on its way to full size.
func (w *Worker) Next() *Op {
	n := len(w.Ops)
	if n == cap(w.Ops) {
		grown := make([]Op, n, max(2*n, minOpsCap))
		copy(grown, w.Ops)
		w.Ops = grown
	}
	w.Ops = w.Ops[:n+1]
	return &w.Ops[n]
}

// Compact returns a copy of w in storage sized exactly to it: one []Op
// with cap == len and one []Collective slab every Coll points into.
// Shapes are immutable and stay shared; nothing else is.
func (w *Worker) Compact() *Worker {
	ncolls := 0
	for i := range w.Ops {
		if w.Ops[i].Coll != nil {
			ncolls++
		}
	}
	ops := make([]Op, len(w.Ops))
	copy(ops, w.Ops)
	colls := make([]Collective, 0, ncolls)
	for i := range ops {
		if c := ops[i].Coll; c != nil {
			colls = append(colls, *c)
			ops[i].Coll = &colls[len(colls)-1]
		}
	}
	c := *w
	c.Ops = ops
	return &c
}

// Stats summarizes a worker trace.
type Stats struct {
	Ops         int
	Kernels     int
	Collectives int
	Memcpys     int
	Syncs       int
	HostTime    time.Duration
	ByName      map[string]int
}

// Stats computes summary statistics over the trace.
func (w *Worker) Stats() Stats {
	s := Stats{HostTime: w.TailGap, ByName: make(map[string]int)}
	for i := range w.Ops {
		op := &w.Ops[i]
		s.Ops++
		s.HostTime += op.HostGap
		switch op.Kind {
		case KindKernel:
			s.Kernels++
			s.ByName[op.Name]++
		case KindCollective:
			s.Collectives++
			s.ByName[op.Coll.Op]++
		case KindMemcpy:
			s.Memcpys++
			s.ByName["Memcpy"+op.ShapeOrZero().MemKind]++
		case KindEventSync, KindStreamSync, KindDeviceSync, KindStreamWait:
			s.Syncs++
		}
	}
	return s
}

// Job is the collated, job-level trace: one worker entry per rank. It
// serializes through Encoder (the capture envelope); JobJSON reads
// version-1 captures.
type Job struct {
	Workers []*Worker
}

// NewJob builds a job trace, sorting workers by rank. Ranks need not
// be dense — deduplicated and selectively launched jobs carry only
// their unique workers — but they must not repeat.
func NewJob(workers []*Worker) (*Job, error) {
	sort.Slice(workers, func(i, j int) bool { return workers[i].Rank < workers[j].Rank })
	for i := 1; i < len(workers); i++ {
		if workers[i].Rank == workers[i-1].Rank {
			return nil, fmt.Errorf("trace: duplicate worker rank %d", workers[i].Rank)
		}
	}
	return &Job{Workers: workers}, nil
}
