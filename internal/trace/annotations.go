package trace

import (
	"sync"
	"time"
)

// Annotations is a duration overlay over an immutable Job: a flat
// per-(worker, op) sidecar that annotation passes write predicted or
// ground-truth durations into and the simulator reads, leaving the job
// itself untouched. The simulator only reads an overlay, so one
// annotated overlay — an estimate plan's — can back any number of
// concurrent simulations of the job, none of which deep-copies the
// trace.
//
// The overlay is indexed positionally: worker w is job.Workers[w] and
// an op is addressed by its index in Ops. Entries start at zero, so
// ops an annotation pass never touches (events, syncs, marks) take no
// device time.
type Annotations struct {
	// offsets[w] is worker w's first slot in durs; offsets has one
	// extra trailing entry so a worker's row is
	// durs[offsets[w]:offsets[w+1]].
	offsets []int
	durs    []time.Duration
}

// NewAnnotations builds a zeroed overlay for the job.
func NewAnnotations(job *Job) *Annotations {
	a := &Annotations{}
	a.Rebind(job)
	return a
}

// Rebind points the overlay at a (possibly different) job, reusing
// grown storage, and zeroes it.
func (a *Annotations) Rebind(job *Job) {
	if cap(a.offsets) < len(job.Workers)+1 {
		a.offsets = make([]int, len(job.Workers)+1)
	}
	a.offsets = a.offsets[:len(job.Workers)+1]
	off := 0
	for wi, w := range job.Workers {
		a.offsets[wi] = off
		off += len(w.Ops)
	}
	a.offsets[len(job.Workers)] = off
	if cap(a.durs) < off {
		a.durs = make([]time.Duration, off)
	}
	a.durs = a.durs[:off]
	clear(a.durs)
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

// Dur returns the overlay duration of op i of worker w.
func (a *Annotations) Dur(w, i int) time.Duration {
	return a.durs[a.offsets[w]+i]
}

// Set writes the overlay duration of op i of worker w.
func (a *Annotations) Set(w, i int, d time.Duration) {
	a.durs[a.offsets[w]+i] = d
}

var annPool sync.Pool

// AcquireAnnotations returns a pooled, zeroed overlay bound to the
// job. Release it when the simulation that reads it has finished.
// Like sim.RunPooled it exists for bench/'s ladder rungs only: product
// replays read their estimate plan's overlay in place.
func AcquireAnnotations(job *Job) *Annotations {
	a, _ := annPool.Get().(*Annotations)
	if a == nil {
		a = &Annotations{}
	}
	a.Rebind(job)
	return a
}

// Release returns the overlay to the pool. The overlay must not be
// used after Release.
func (a *Annotations) Release() { annPool.Put(a) }
