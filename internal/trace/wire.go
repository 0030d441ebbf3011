package trace

import (
	"fmt"
	"time"
)

// JobJSON is a Job in the JSON form version-1 captures embed. Every op
// is one flat record with its shape's fields inline, exactly as traces
// were written before shapes were interned. Its uniqueRanks, a
// worker's dedup and an op's dur are read and dropped, except that a
// host delay's dur folds into the next op's gap.
type JobJSON struct {
	Workers     []*workerJSON `json:"workers"`
	UniqueRanks []int         `json:"uniqueRanks,omitempty"`
}

type workerJSON struct {
	Rank      int           `json:"rank"`
	Device    string        `json:"device"`
	World     int           `json:"world"`
	Ops       []opJSON      `json:"ops"`
	PeakBytes int64         `json:"peakBytes"`
	OOM       bool          `json:"oom,omitempty"`
	Dedup     int           `json:"dedup,omitempty"`
	TailGap   time.Duration `json:"tailGap,omitempty"`
}

// opJSON is an Op as the wire carries it.
type opJSON struct {
	Seq      int                `json:"seq"`
	Kind     Kind               `json:"kind"`
	Stream   int64              `json:"stream,omitempty"`
	Name     string             `json:"name,omitempty"`
	Dims     []int              `json:"dims,omitempty"`
	Bytes    int64              `json:"bytes,omitempty"`
	FLOPs    int64              `json:"flops,omitempty"`
	DType    string             `json:"dtype,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	MemKind  string             `json:"memKind,omitempty"`
	HostGap  time.Duration      `json:"hostGap,omitempty"`
	Event    int64              `json:"event,omitempty"`
	EventVer int                `json:"eventVer,omitempty"`
	Coll     *Collective        `json:"coll,omitempty"`
	Dur      time.Duration      `json:"dur,omitempty"`
}

// Job returns the in-memory job (nil workers stay nil, for the
// caller's validation to reject). It fails when a device record's seq
// is not its position in the file. Each worker interns its ops' shapes
// in a table of its own. An op gets a shape when it is a kernel,
// memcpy or memset — what the emulator records one for — or when it
// carries any shape field, so nothing a device call holds is dropped.
//
// The host-only records of traces written before version 3 fold away:
// a host delay's duration, and any gap a legacy record carries, join
// the next op's HostGap, or the worker's TailGap after the last op; a
// malloc or free leaves nothing (peak memory and OOM are the
// worker's).
func (p *JobJSON) Job() (*Job, error) {
	j := &Job{Workers: sized[*Worker](p.Workers)}
	for i, ww := range p.Workers {
		if ww == nil {
			continue
		}
		w := &Worker{Rank: ww.Rank, Device: ww.Device, World: ww.World, Ops: sized[Op](ww.Ops),
			PeakBytes: ww.PeakBytes, OOM: ww.OOM}
		var shapes Shapes
		var gap time.Duration
		n := 0
		for k := range ww.Ops {
			o := &ww.Ops[k]
			if o.Kind.legacy() {
				gap += o.HostGap
				if o.Kind == kindHostDelay {
					gap += o.Dur
				}
				continue
			}
			if o.Seq != k {
				return nil, fmt.Errorf("trace: worker at index %d: op %d: seq %d is not its position", i, k, o.Seq)
			}
			op := Op{Kind: o.Kind, Stream: o.Stream, Name: o.Name, Bytes: o.Bytes,
				HostGap: gap + o.HostGap, Event: o.Event, EventVer: o.EventVer, Coll: o.Coll}
			gap = 0
			if o.Kind == KindKernel || o.Kind == KindMemcpy || o.Kind == KindMemset ||
				len(o.Dims) > 0 || o.FLOPs != 0 || o.DType != "" || len(o.Extra) > 0 || o.MemKind != "" {
				op.Shape = shapes.Intern(o.Kind, &Shape{Name: o.Name, Dims: o.Dims, Bytes: o.Bytes,
					FLOPs: o.FLOPs, DType: o.DType, Extra: o.Extra, MemKind: o.MemKind})
			}
			w.Ops[n] = op
			n++
		}
		if w.Ops != nil {
			w.Ops = w.Ops[:n]
		}
		w.TailGap = gap + ww.TailGap
		j.Workers[i] = w
	}
	return j, nil
}

// sized returns a slice of len(like) Ts, nil when like is nil.
func sized[T, U any](like []U) []T {
	if like == nil {
		return nil
	}
	return make([]T, len(like))
}
