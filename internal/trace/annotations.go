package trace

import (
	"sync"
	"time"
)

// Annotations is a duration overlay over an immutable Job: a flat
// per-(worker, op) sidecar that annotation passes write predicted or
// ground-truth durations into and the simulator reads through,
// leaving the job itself untouched. The simulator only reads an
// overlay, so one annotated overlay — an estimate plan's — can back
// any number of concurrent simulations of the job, none of which
// deep-copies the trace.
//
// The overlay is indexed positionally: worker w is job.Workers[w] and
// an op is addressed by its per-worker sequence number, which for
// jobs built through Worker.Append equals its index in Ops. Entries
// start as the base ops' durations, so ops an annotation pass never
// touches (measured host delays, pre-annotated traces) read through
// unchanged.
type Annotations struct {
	// offsets[w] is worker w's first slot in durs; offsets has one
	// extra trailing entry so a worker's row is
	// durs[offsets[w]:offsets[w+1]].
	offsets []int
	durs    []time.Duration
}

// NewAnnotations builds an overlay for the job, seeded with the base
// op durations. It returns nil when the job is not positionally
// indexable (some op's Seq is not its index in Ops): no job the
// emulator, the collator or ReadCapture produces.
func NewAnnotations(job *Job) *Annotations {
	a := &Annotations{}
	if !a.Rebind(job) {
		return nil
	}
	return a
}

// Rebind points the overlay at a (possibly different) job, reusing
// grown storage, and re-seeds it with the job's base durations. It
// reports false — leaving the overlay unusable for this job — when
// any op's Seq is not its index in its worker's Ops, the invariant
// positional indexing rests on.
func (a *Annotations) Rebind(job *Job) bool {
	n := 0
	for _, w := range job.Workers {
		n += len(w.Ops)
	}
	if cap(a.offsets) < len(job.Workers)+1 {
		a.offsets = make([]int, len(job.Workers)+1)
	}
	a.offsets = a.offsets[:len(job.Workers)+1]
	if cap(a.durs) < n {
		a.durs = make([]time.Duration, n)
	}
	a.durs = a.durs[:n]

	off := 0
	for wi, w := range job.Workers {
		a.offsets[wi] = off
		row := a.durs[off : off+len(w.Ops)]
		for i := range w.Ops {
			if w.Ops[i].Seq != i {
				return false
			}
			row[i] = w.Ops[i].Dur
		}
		off += len(w.Ops)
	}
	a.offsets[len(job.Workers)] = off
	return true
}

// Table returns the overlay's duration table, row-major, exactly the
// table FillFrom accepts. It aliases the overlay: callers only read it.
func (a *Annotations) Table() []time.Duration { return a.durs }

// FillFrom overwrites the whole overlay from a precomputed duration
// table laid out row-major like the overlay itself (an estimate
// plan's table). It reports false — leaving the overlay unchanged —
// when the table's length does not match the overlay's.
func (a *Annotations) FillFrom(durs []time.Duration) bool {
	if len(durs) != len(a.durs) {
		return false
	}
	copy(a.durs, durs)
	return true
}

// Dur returns the overlay duration of op seq of worker w.
func (a *Annotations) Dur(w, seq int) time.Duration {
	return a.durs[a.offsets[w]+seq]
}

// Set writes the overlay duration of op seq of worker w.
func (a *Annotations) Set(w, seq int, d time.Duration) {
	a.durs[a.offsets[w]+seq] = d
}

var annPool sync.Pool

// AcquireAnnotations returns a pooled overlay bound to the job (nil
// when the job is not positionally indexable). Release it when the
// simulation that reads it has finished. Like sim.RunPooled it exists
// for bench/'s ladder rungs only: product replays read their estimate
// plan's overlay in place.
func AcquireAnnotations(job *Job) *Annotations {
	a, _ := annPool.Get().(*Annotations)
	if a == nil {
		a = &Annotations{}
	}
	if !a.Rebind(job) {
		annPool.Put(a)
		return nil
	}
	return a
}

// Release returns the overlay to the pool. The overlay must not be
// used after Release; a nil receiver is a no-op so callers can defer
// it before checking what AcquireAnnotations returned.
func (a *Annotations) Release() {
	if a == nil {
		return
	}
	annPool.Put(a)
}
