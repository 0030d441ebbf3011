package trace

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"
)

// The binary form of a Job, the payload of a version-3 capture. Its
// bytes are a function of the job's content, not of how it is held in
// memory: every worker carries its own string and shape tables, one
// entry per distinct value in first-use order, maps are written in key
// order. A slice or map whose nil-ness a decoded job must reproduce
// has its length written as n+1, 0 meaning nil, so a job decodes
// deep-equal to the one written.
//
//	job    = len uniqueRanks (varint rank)..., len workers (worker)...
//	worker = varint rank, string device, varint world, varint peakBytes,
//	         varint dedup, byte oom (0 or 1), varint tailGap,
//	         uvarint n (string)...   the string table
//	         uvarint n (shape)...    the shape table
//	         uvarint collectives, len ops (op)...
//	shape  = byte kind, ref name, uvarint n (varint dim)..., varint bytes,
//	         varint flops, ref dtype, uvarint n (ref key, 8-byte
//	         little-endian float bits)... in key order, ref memKind
//	op     = byte kind, byte flags, then the field of each set flag in
//	         bit order: varint stream, uvarint shape, ref name, varint
//	         bytes, varint hostGap, varint event and varint eventVer,
//	         coll, varint dur
//	coll   = ref op, uvarint comm, varint seq, varint nranks, varint
//	         rank, varint peer, varint bytes
//
// A string is a uvarint length and its bytes; a ref is a uvarint index
// into the worker's string table. An op with a shape takes its name and
// bytes from it; the name and bytes flags are set only where the op's
// own differ.
//
// Three fields are left from traces that carried more than device
// calls: uniqueRanks and dedup, which the encoder writes as nil and 0,
// and an op's dur, which it never sets. Readers bound and drop them,
// except that a version-2 host delay's dur folds into the next op's
// gap.
//
// Version 2, the form before it, differs in three places: a worker has
// no tailGap; the op flag bit hostGap holds is a uvarint device pointer
// (a malloc's or a free's); and host delays, mallocs and frees are ops
// of their own. Decoder.JobV2 reads it and folds those records as
// JobJSON.Job does.

// Op presence flags: which of an op's fields its record carries.
const (
	opStream = 1 << iota
	opShape
	opName
	opBytes
	opGap // a malloc or free's device pointer in version 2
	opEvent
	opColl
	opDur // never written; read and dropped, save a v2 host delay's duration
)

// The fewest bytes each record can take: a count read from the input is
// bounded by the bytes left to back it before anything is allocated.
const (
	minWorkerBytes = 10 // rank, device, world, peak, dedup, oom and four counts (v3 adds a tail gap)
	minShapeBytes  = 8  // kind and seven fields
	minExtraBytes  = 9  // key and float bits
	minOpBytes     = 2  // kind and flags
	minCollBytes   = 9  // an op record holding a collective's seven fields
)

// Encoder appends values in the binary form to B. The zero value is
// ready to use; its tables are reused from one worker to the next.
type Encoder struct {
	B []byte

	strIdx   map[string]uint64
	strs     []string
	shapeIdx map[*Shape]shapeRef // an op's shape pointer to its kind and table index
	canonIdx map[*Shape]uint64   // canon's shape to its table index
	canon    Shapes              // dedupes shapes by value
	shapes   []byte              // the shape table being built
	ops      []byte              // the op records being built
}

type shapeRef struct {
	kind Kind
	idx  uint64
}

// Uvarint appends v as a uvarint.
func (e *Encoder) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

// Varint appends v as a zigzag varint.
func (e *Encoder) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Byte appends one byte.
func (e *Encoder) Byte(b byte) { e.B = append(e.B, b) }

// Str appends s as a uvarint length and its bytes.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Len appends the length of a slice or map that may be nil: n+1, or 0
// for nil.
func (e *Encoder) Len(n int, isNil bool) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Job appends j, which must not be nil. It fails on what no trace can
// hold: a nil worker, an unknown or host-only op kind, a non-finite
// Extra value.
func (e *Encoder) Job(j *Job) error {
	e.Len(0, true) // uniqueRanks
	e.Len(len(j.Workers), j.Workers == nil)
	for i, w := range j.Workers {
		if w == nil {
			return fmt.Errorf("trace: nil worker at index %d", i)
		}
		if err := e.worker(w); err != nil {
			return fmt.Errorf("trace: worker at index %d: %w", i, err)
		}
	}
	return nil
}

func (e *Encoder) worker(w *Worker) error {
	if e.strIdx == nil {
		e.strIdx = make(map[string]uint64)
		e.shapeIdx = make(map[*Shape]shapeRef)
		e.canonIdx = make(map[*Shape]uint64)
	}
	clear(e.strIdx)
	clear(e.shapeIdx)
	clear(e.canonIdx)
	e.strs, e.canon, e.shapes = e.strs[:0], Shapes{}, e.shapes[:0]

	// The op records go first to a buffer of their own: the tables they
	// fill precede them in the output.
	b := e.ops[:0]
	colls := 0
	for i := range w.Ops {
		op := &w.Ops[i]
		if int(op.Kind) >= len(kindNames) || op.Kind.legacy() {
			return fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		// The flags byte is filled in once the fields present are
		// written, in flag bit order.
		at := len(b) + 1
		b = append(b, byte(op.Kind), 0)
		var flags byte
		var name string
		var bytes int64
		if op.Stream != 0 {
			flags |= opStream
			b = binary.AppendVarint(b, op.Stream)
		}
		if s := op.Shape; s != nil {
			k, err := e.shape(op.Kind, s)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			flags |= opShape
			b = binary.AppendUvarint(b, k)
			name, bytes = s.Name, s.Bytes
		}
		if op.Name != name {
			flags |= opName
			b = binary.AppendUvarint(b, e.ref(op.Name))
		}
		if op.Bytes != bytes {
			flags |= opBytes
			b = binary.AppendVarint(b, op.Bytes)
		}
		if op.HostGap != 0 {
			flags |= opGap
			b = binary.AppendVarint(b, int64(op.HostGap))
		}
		if op.Event != 0 || op.EventVer != 0 {
			flags |= opEvent
			b = binary.AppendVarint(b, op.Event)
			b = binary.AppendVarint(b, int64(op.EventVer))
		}
		if c := op.Coll; c != nil {
			flags |= opColl
			colls++
			b = binary.AppendUvarint(b, e.ref(c.Op))
			b = binary.AppendUvarint(b, c.CommID)
			for _, v := range [...]int64{int64(c.Seq), int64(c.NRanks), int64(c.Rank), int64(c.Peer), c.Bytes} {
				b = binary.AppendVarint(b, v)
			}
		}
		b[at] = flags
	}
	e.ops = b

	e.Varint(int64(w.Rank))
	e.Str(w.Device)
	e.Varint(int64(w.World))
	e.Varint(w.PeakBytes)
	e.Varint(0) // dedup
	var oom byte
	if w.OOM {
		oom = 1
	}
	e.Byte(oom)
	e.Varint(int64(w.TailGap))
	e.Uvarint(uint64(len(e.strs)))
	for _, s := range e.strs {
		e.Str(s)
	}
	e.Uvarint(uint64(len(e.canonIdx)))
	e.B = append(e.B, e.shapes...)
	e.Uvarint(uint64(colls))
	e.Len(len(w.Ops), w.Ops == nil)
	e.B = append(e.B, e.ops...)
	return nil
}

// shape returns the worker's table index of (k, s), adding a shape
// equal to none before it to the table.
func (e *Encoder) shape(k Kind, s *Shape) (uint64, error) {
	if ref, ok := e.shapeIdx[s]; ok && ref.kind == k {
		return ref.idx, nil
	}
	for key, v := range s.Extra {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("shape %s: extra %q is %v", s.Name, key, v)
		}
	}
	c := e.canon.Intern(k, s)
	i, ok := e.canonIdx[c]
	if !ok {
		i = uint64(len(e.canonIdx))
		e.canonIdx[c] = i
		b := append(e.shapes, byte(k))
		b = binary.AppendUvarint(b, e.ref(s.Name))
		b = binary.AppendUvarint(b, uint64(len(s.Dims)))
		for _, d := range s.Dims {
			b = binary.AppendVarint(b, int64(d))
		}
		b = binary.AppendVarint(b, s.Bytes)
		b = binary.AppendVarint(b, s.FLOPs)
		b = binary.AppendUvarint(b, e.ref(s.DType))
		b = binary.AppendUvarint(b, uint64(len(s.Extra)))
		for _, key := range slices.Sorted(maps.Keys(s.Extra)) {
			b = binary.AppendUvarint(b, e.ref(key))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Extra[key]))
		}
		b = binary.AppendUvarint(b, e.ref(s.MemKind))
		e.shapes = b
	}
	e.shapeIdx[s] = shapeRef{k, i}
	return i, nil
}

// ref returns s's index in the worker's string table, adding it.
func (e *Encoder) ref(s string) uint64 {
	i, ok := e.strIdx[s]
	if !ok {
		i = uint64(len(e.strs))
		e.strIdx[s] = i
		e.strs = append(e.strs, s)
	}
	return i
}

// Decoder reads values in the binary form. Its first error sticks:
// every later read returns a zero value, and End reports the error.
type Decoder struct {
	b   []byte
	err error

	strs  map[string]string // every distinct string read so far, so each is allocated once
	tab   []string          // the current worker's string table
	kinds []Kind            // the kinds of the current worker's shapes
	v2    bool              // reading the version-2 form
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: "+format, args...)
	}
	d.b = nil
}

// End returns the first error met, or one when input is left unread.
func (d *Decoder) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.fail("unexpected end of input")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("%d overflows int", v)
		return 0
	}
	return int(v)
}

// Str reads a string written by Encoder.Str.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes past the end", n)
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(raw)
	d.strs[s] = s
	return s
}

// count reads a count of records that take at least min bytes each,
// failing when fewer bytes are left than they need.
func (d *Decoder) count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Len reads a length written by Encoder.Len of records that take at
// least min bytes each, bounded by the bytes left as count bounds it;
// isNil reports a nil slice or map.
func (d *Decoder) Len(min int) (n int, isNil bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.b)/min) {
		d.fail("length %d exceeds the %d bytes left", v-1, len(d.b))
		return 0, true
	}
	return int(v - 1), false
}

// Job reads a job written by Encoder.Job. It checks every table index
// and kind, and that an op's kind is its shape's, the invariant plan
// memos key on; collective metadata is the caller's to validate. Each
// worker's ops and collectives are one exact-size slice each, the
// layout Worker.Compact makes.
func (d *Decoder) Job() *Job {
	d.v2 = false
	return d.job()
}

// JobV2 reads a job in the version-2 form, folding its host delays,
// mallocs and frees as JobJSON.Job does: each op's HostGap is the host
// delays recorded since the op before it, and the delays after the
// last op are the worker's TailGap.
func (d *Decoder) JobV2() *Job {
	d.v2 = true
	return d.job()
}

func (d *Decoder) job() *Job {
	j := &Job{}
	n, _ := d.Len(1) // uniqueRanks
	for ; n > 0; n-- {
		d.Int()
	}
	if n, isNil := d.Len(minWorkerBytes); !isNil {
		j.Workers = make([]*Worker, n)
		for i := range j.Workers {
			if d.err != nil {
				break
			}
			j.Workers[i] = d.worker()
		}
	}
	return j
}

func (d *Decoder) worker() *Worker {
	w := &Worker{Rank: d.Int(), Device: d.Str(), World: d.Int(), PeakBytes: d.Varint()}
	d.Int() // dedup
	switch d.Byte() {
	case 0:
	case 1:
		w.OOM = true
	default:
		d.fail("oom flag is not 0 or 1")
	}
	if !d.v2 {
		w.TailGap = time.Duration(d.Varint())
	}

	d.tab = d.tab[:0]
	for n := d.count(1); n > 0; n-- {
		d.tab = append(d.tab, d.Str())
	}
	shapes := make([]Shape, d.count(minShapeBytes))
	d.kinds = d.kinds[:0]
	for i := range shapes {
		s := &shapes[i]
		d.kinds = append(d.kinds, d.kind())
		s.Name = d.ref()
		if n := d.count(1); n > 0 {
			s.Dims = make([]int, n)
			for k := range s.Dims {
				s.Dims[k] = d.Int()
			}
		}
		s.Bytes, s.FLOPs, s.DType = d.Varint(), d.Varint(), d.ref()
		if n := d.count(minExtraBytes); n > 0 {
			s.Extra = make(map[string]float64, n)
			for ; n > 0 && d.err == nil; n-- {
				key := d.ref()
				if len(d.b) < 8 {
					d.fail("shape %d: extra %q past the end", i, key)
					break
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
				d.b = d.b[8:]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					d.fail("shape %d: extra %q is %v", i, key, v)
				}
				s.Extra[key] = v
			}
		}
		s.MemKind = d.ref()
	}

	ncolls := d.count(minCollBytes)
	nops, isNil := d.Len(minOpBytes)
	if ncolls > nops {
		d.fail("%d collectives among %d ops", ncolls, nops)
		return w
	}
	if isNil {
		return w
	}
	ops := make([]Op, nops)
	colls := make([]Collective, ncolls)
	nc, n := 0, 0
	var gap time.Duration // version 2: host delays read since the last op kept
	for i := range nops {
		if d.err != nil {
			return w
		}
		op := &ops[n]
		op.Kind = d.kind()
		flags := d.Byte()
		if flags&opStream != 0 {
			op.Stream = d.Varint()
		}
		if flags&opShape != 0 {
			k := d.Uvarint()
			if k >= uint64(len(shapes)) {
				d.fail("op %d: shape %d of %d", i, k, len(shapes))
				return w
			}
			if d.kinds[k] != op.Kind {
				d.fail("op %d: a %v with a %v's shape", i, op.Kind, d.kinds[k])
				return w
			}
			op.Shape = &shapes[k]
			op.Name, op.Bytes = op.Shape.Name, op.Shape.Bytes
		}
		if flags&opName != 0 {
			op.Name = d.ref()
		}
		if flags&opBytes != 0 {
			op.Bytes = d.Varint()
		}
		if flags&opGap != 0 {
			if d.v2 {
				d.Uvarint() // a device pointer: nothing after capture reads it
			} else {
				op.HostGap = time.Duration(d.Varint())
			}
		}
		if flags&opEvent != 0 {
			op.Event, op.EventVer = d.Varint(), d.Int()
		}
		if flags&opColl != 0 {
			if nc == len(colls) {
				d.fail("op %d: more collectives than the %d counted", i, len(colls))
				return w
			}
			c := &colls[nc]
			nc++
			*c = Collective{Op: d.ref(), CommID: d.Uvarint(), Seq: d.Int(), NRanks: d.Int(), Rank: d.Int(), Peer: d.Int(), Bytes: d.Varint()}
			op.Coll = c
		}
		var dur time.Duration
		if flags&opDur != 0 {
			dur = time.Duration(d.Varint())
		}
		if op.Kind.legacy() {
			if op.Kind == kindHostDelay {
				gap += dur
			}
			*op = Op{}
			continue
		}
		op.HostGap += gap
		gap = 0
		n++
	}
	if nc != len(colls) {
		d.fail("%d collectives, %d counted", nc, len(colls))
	}
	if n < nops {
		ops = append([]Op(nil), ops[:n]...)
		if ops == nil {
			ops = []Op{}
		}
	}
	w.Ops = ops
	w.TailGap += gap
	return w
}

// kind reads an op kind; a host-only kind is known to version 2 only.
func (d *Decoder) kind() Kind {
	k := Kind(d.Byte())
	if int(k) >= len(kindNames) || (k.legacy() && !d.v2) {
		d.fail("unknown op kind %d", k)
	}
	return k
}

// ref reads an index into the worker's string table.
func (d *Decoder) ref() string {
	i := d.Uvarint()
	if i >= uint64(len(d.tab)) {
		d.fail("string %d of %d", i, len(d.tab))
		return ""
	}
	return d.tab[i]
}
