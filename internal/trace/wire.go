package trace

import "time"

// JobJSON is a Job in its JSON form: what WriteJSON writes and a
// version-1 capture envelope embeds. Every op is one flat record with
// its shape's fields inline, exactly as traces were written before
// shapes were interned, so old trace files load. It is a plain struct, not a json.Marshaler on Job:
// encoding/json re-scans whatever a Marshaler returns, which would
// cost a trace write a second pass over its bytes.
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

// opJSON is an Op as the wire carries it. The field order is the
// format: do not reorder.
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

// NewJobJSON returns the serialized form of j (nil for a nil job). It
// shares the job's slices and maps rather than copying them; a nil
// slice stays nil, so it still writes as null.
func NewJobJSON(j *Job) *JobJSON {
	if j == nil {
		return nil
	}
	p := &JobJSON{Workers: sized[*workerJSON](j.Workers), UniqueRanks: j.UniqueRanks}
	for i, w := range j.Workers {
		if w == nil {
			continue
		}
		ww := &workerJSON{Rank: w.Rank, Device: w.Device, World: w.World, Ops: sized[opJSON](w.Ops),
			PeakBytes: w.PeakBytes, OOM: w.OOM, Dedup: w.Dedup, TailGap: w.TailGap}
		for k := range w.Ops {
			op := &w.Ops[k]
			o := opJSON{Seq: op.Seq, Kind: op.Kind, Stream: op.Stream, Name: op.Name, Bytes: op.Bytes,
				HostGap: op.HostGap, Event: op.Event, EventVer: op.EventVer, Coll: op.Coll, Dur: op.Dur}
			if s := op.Shape; s != nil {
				o.Dims, o.FLOPs, o.DType, o.Extra, o.MemKind = s.Dims, s.FLOPs, s.DType, s.Extra, s.MemKind
			}
			ww.Ops[k] = o
		}
		p.Workers[i] = ww
	}
	return p
}

// Job returns the in-memory job (nil workers stay nil, for the
// caller's validation to reject). Each worker interns its ops' shapes
// in a table of its own. An op gets a shape when it is a kernel,
// memcpy or memset — what the emulator records one for — or when it
// carries any shape field, so nothing a device call holds is dropped.
//
// The host-only records of traces written before version 3 fold away:
// a host delay's duration, and any gap a legacy record carries, join
// the next op's HostGap, or the worker's TailGap after the last op; a
// malloc or free leaves nothing (peak memory and OOM are the
// worker's). An op's Seq drops by the records folded before it, so a
// seq that was its index in the file is its index in the job.
func (p *JobJSON) Job() *Job {
	j := &Job{Workers: sized[*Worker](p.Workers), UniqueRanks: p.UniqueRanks}
	for i, ww := range p.Workers {
		if ww == nil {
			continue
		}
		w := &Worker{Rank: ww.Rank, Device: ww.Device, World: ww.World, Ops: sized[Op](ww.Ops),
			PeakBytes: ww.PeakBytes, OOM: ww.OOM, Dedup: ww.Dedup}
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
			op := Op{Seq: o.Seq - (k - n), Kind: o.Kind, Stream: o.Stream, Name: o.Name, Bytes: o.Bytes,
				HostGap: gap + o.HostGap, Event: o.Event, EventVer: o.EventVer, Coll: o.Coll, Dur: o.Dur}
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
	return j
}

// sized returns a slice of len(like) Ts, nil when like is nil.
func sized[T, U any](like []U) []T {
	if like == nil {
		return nil
	}
	return make([]T, len(like))
}
