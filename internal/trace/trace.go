// Package trace defines Maya's execution-trace model: the sequence of
// device-API operations each worker performed during emulation, and
// the merged job-level view the simulator consumes.
//
// A trace is the contract between every stage of the pipeline. The
// emulator produces per-worker traces; the collator merges and
// deduplicates them; the estimator annotates kernel durations; the
// simulator replays the result. A job serializes two ways: to a compact
// binary form (Encoder, Decoder) that captures are archived and shipped
// in, and to JSON (WriteJSON, JobJSON) to be inspected and diffed,
// matching the paper's example
// `{"events":[{"dev":"gpu0-stream0","op":"cublasSgemm_v2"}, ...]}`;
// JobJSON also reads the captures earlier releases wrote.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Kind discriminates trace operations.
type Kind uint8

// Operation kinds captured by the emulator.
const (
	KindKernel      Kind = iota // compute kernel launch
	KindMemcpy                  // cudaMemcpyAsync
	KindMemset                  // cudaMemsetAsync
	KindMalloc                  // cudaMalloc
	KindFree                    // cudaFree
	KindEventRecord             // cudaEventRecord
	KindStreamWait              // cudaStreamWaitEvent
	KindEventSync               // cudaEventSynchronize (host blocks)
	KindStreamSync              // cudaStreamSynchronize (host blocks)
	KindDeviceSync              // cudaDeviceSynchronize (host blocks)
	KindCollective              // NCCL collective or P2P operation
	KindHostDelay               // CPU time between API calls
	KindMark                    // iteration / phase boundary marker
)

var kindNames = [...]string{
	"kernel", "memcpy", "memset", "malloc", "free",
	"eventRecord", "streamWaitEvent", "eventSync", "streamSync",
	"deviceSync", "collective", "hostDelay", "mark",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes kinds by name for readable traces.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
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

// Op is one traced device-API operation. It is 96 bytes: a kernel,
// memcpy or memset keeps its shape behind one pointer (Shape), so the
// half of every trace that is host delays and events carries no
// kernel fields at all. Its JSON form is the flat record opJSON
// describes.
type Op struct {
	Seq    int    // per-worker sequence number
	Kind   Kind   // discriminator
	Stream int64  // issuing stream handle
	Name   string // kernel or API name
	Bytes  int64  // bytes moved, allocated or communicated

	// Shape is the interned identity of a kernel, memcpy or memset (see
	// Shape); nil for every other kind.
	Shape *Shape

	Ptr uint64 // device pointer of a malloc or free

	// Event metadata. EventVer is the record-count of the event at the
	// time of the call; stream waits capture the version they saw.
	Event    int64
	EventVer int

	Coll *Collective

	// Dur is the operation's duration: host time for KindHostDelay
	// (measured during emulation), predicted device time after the
	// estimation phase, and ground-truth device time in silicon
	// traces. Zero for ops that are instantaneous in the model.
	Dur time.Duration
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

// SigString returns a stable signature of the op's identity used for
// worker deduplication: everything that defines the computation, but
// not measured host durations.
func (o *Op) SigString() string {
	switch o.Kind {
	case KindHostDelay:
		return "h"
	case KindCollective:
		c := o.Coll
		return fmt.Sprintf("c|%s|%d|%d|%d", c.Op, c.Bytes, c.NRanks, o.Stream)
	default:
		s := o.ShapeOrZero()
		return fmt.Sprintf("%d|%s|%v|%d|%d|%s|%d", o.Kind, o.Name, s.Dims, o.Bytes, s.FLOPs, s.DType, o.Stream)
	}
}

// Worker is the trace of one emulated rank.
type Worker struct {
	Rank      int
	Device    string // GPU model name
	World     int    // total ranks in the job
	Ops       []Op
	PeakBytes int64 // allocator high-water mark
	OOM       bool  // allocation exceeded capacity
	Dedup     int   // rank this trace was cloned from (when reconstructed)
}

// minOpsCap is the op capacity a worker's first Append allocates.
const minOpsCap = 64

// Append adds an op, assigning its per-worker sequence number. A full
// buffer doubles: an Op is 96 bytes and holds pointers, so the
// runtime's 1.25x growth past 256 elements would allocate, clear and
// copy a long trace several times over on its way to full size.
func (w *Worker) Append(op Op) {
	n := len(w.Ops)
	if n == cap(w.Ops) {
		grown := make([]Op, n, max(2*n, minOpsCap))
		copy(grown, w.Ops)
		w.Ops = grown
	}
	op.Seq = n
	w.Ops = w.Ops[:n+1]
	w.Ops[n] = op
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

// Clone copies the worker trace as Compact does, remapping it to a new
// rank.
// Collective rank fields inside communicators are remapped by the
// caller (the collator knows the group layouts).
func (w *Worker) Clone(newRank int) *Worker {
	c := w.Compact()
	c.Rank, c.Dedup = newRank, w.Rank
	return c
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
	s := Stats{ByName: make(map[string]int)}
	for i := range w.Ops {
		op := &w.Ops[i]
		s.Ops++
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
		case KindHostDelay:
			s.HostTime += op.Dur
		}
	}
	return s
}

// Job is the collated, job-level trace: one worker entry per rank. It
// serializes through Encoder (the capture envelope) and JobJSON
// (WriteJSON, version-1 captures).
type Job struct {
	Workers []*Worker
	// UniqueRanks lists the ranks that were actually emulated when
	// deduplication reconstructed the rest; empty means all were.
	UniqueRanks []int
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

// NRanks returns the number of workers in the job.
func (j *Job) NRanks() int { return len(j.Workers) }

// OOM reports whether any worker exceeded device memory.
func (j *Job) OOM() bool {
	for _, w := range j.Workers {
		if w.OOM {
			return true
		}
	}
	return false
}

// PeakBytes returns the maximum allocator high-water mark across
// workers.
func (j *Job) PeakBytes() int64 {
	var p int64
	for _, w := range j.Workers {
		if w.PeakBytes > p {
			p = w.PeakBytes
		}
	}
	return p
}

// WriteJSON streams the job trace as indented JSON.
func (j *Job) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(NewJobJSON(j))
}

// ReadJSON parses a job trace produced by WriteJSON.
func ReadJSON(r io.Reader) (*Job, error) {
	var j JobJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("trace: decoding job: %w", err)
	}
	return j.Job(), nil
}
