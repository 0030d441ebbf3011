package trace

import (
	"hash/maphash"
	"maps"
	"math"
	"slices"
)

// Shape is the identity of one device op: everything a Timer prices a
// kernel, memcpy or memset by, besides its Kind. Traces are very
// repetitive — a 64-rank GPT-3 trace launches ~39 k kernels of ~51
// distinct shapes — so ops do not carry these fields themselves: the
// emulator and the trace decoder intern each distinct shape once and
// every op of that shape points to it.
//
// A Shape is immutable once an op points to it; ops, clones and
// workers share it freely. Every op pointing to one interned Shape has
// the same Kind (Shapes keys on it), so a Timer's answer for an op is
// a function of its kind and its shape's content.
//
// An interned shape also has a position: its place among the shapes
// of its kind in the table that interned it (Pos). Estimate plans
// index a slice by it, so pricing an op costs no hashing.
type Shape struct {
	Name    string             // kernel or API name (equal to the op's)
	Dims    []int              // semantic dimensions, not values
	Bytes   int64              // bytes moved (equal to the op's)
	FLOPs   int64              // floating-point work
	DType   string             // element type
	Extra   map[string]float64 // compiler-IR features, e.g. Triton instruction counts
	MemKind string             // copy direction: "HtoD", "DtoH", "DtoD", "HtoH"

	pos int32 // see Pos
}

// Pos returns the shape's position: n for the (n+1)th shape of its
// kind its table interned, in first-sighting order. The emulator's
// table, the trace decoders and JobJSON all number that way, so a
// shape reloaded from a trace keeps the position it was recorded
// with. A hand-built shape reads 0, and a copy its original's. Shapes
// of different tables share positions: a position identifies a shape
// only together with its pointer.
func (s *Shape) Pos() int { return int(s.pos) }

// OpOf returns an op of kind k with shape s, its Name and Bytes taken
// from s: how profiled and hand-built device ops are made.
func OpOf(k Kind, s *Shape) Op {
	return Op{Kind: k, Name: s.Name, Bytes: s.Bytes, Shape: s}
}

// noShape is what an op that carries no shape reads as.
var noShape Shape

// ShapeOrZero returns the op's shape, or the zero Shape for an op that
// has none (events, syncs, marks, collectives, hand-built test ops).
// The result must not be modified.
func (o *Op) ShapeOrZero() *Shape {
	if o.Shape != nil {
		return o.Shape
	}
	return &noShape
}

// Shapes is an intern table: one *Shape per distinct (kind, shape) it
// has been handed, numbered per kind in first-sighting order (see
// Shape.Pos). Each emulator owns one, the trace decoder one per
// worker and an estimate plan one per build, so no table is shared
// between goroutines. The zero value is ready to use.
//
// Traces repeat themselves: the op after a given shape is most often
// the one that followed it last time. So before it hashes, Intern
// tries a guess, the shape it returned after the previous one the
// last time that one came up, and takes it only if equal says so.
type Shapes struct {
	// slots[k] is kind k's open-addressed table: a power-of-two number
	// of slots, nil when free, probed linearly from a shape's hash and
	// never more than half full.
	slots [len(kindNames)][]*Shape
	// next[k][p] is the shape Intern returned right after it returned
	// kind k's shape at position p, nil before it has; len(next[k]) is
	// how many shapes of kind k the table holds.
	next [len(kindNames)][]*Shape
	// last[k] is the shape of kind k Intern returned last.
	last [len(kindNames)]*Shape
}

// minSlots is the size of a kind's first slot table.
const minSlots = 16

// Intern returns the table's shape equal to s for ops of kind k. On
// first sighting it stores a copy of s whose Dims are copied and whose
// Extra is cloned (both nil when empty), so the table never retains
// the caller's slice or map: a caller may reuse and mutate them after
// the call without touching ops already recorded.
func (t *Shapes) Intern(k Kind, s *Shape) *Shape {
	got, h := t.find(k, s)
	if got != nil {
		return got
	}
	c := *s
	c.Dims, c.Extra = nil, nil
	if len(s.Dims) > 0 {
		c.Dims = slices.Clone(s.Dims)
	}
	if len(s.Extra) > 0 {
		c.Extra = maps.Clone(s.Extra)
	}
	t.add(k, h, &c)
	return &c
}

// adopt is Intern for a shape the caller owns and gives up: on first
// sighting s itself joins the table, and gets its position.
func (t *Shapes) adopt(k Kind, s *Shape) *Shape {
	got, h := t.find(k, s)
	if got != nil {
		return got
	}
	t.add(k, h, s)
	return s
}

// find returns the table's shape equal to s for kind k: the guess
// when it is equal, else the one the probe meets, and records it as
// the one returned. On a miss it returns nil and the hash s probes
// from.
func (t *Shapes) find(k Kind, s *Shape) (*Shape, uint64) {
	if last := t.last[k]; last != nil {
		if g := t.next[k][last.pos]; g != nil && g.equal(s) {
			t.last[k] = g
			return g, 0
		}
	}
	h := s.hash()
	slots := t.slots[k]
	if len(slots) == 0 {
		return nil, h
	}
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		got := slots[i]
		if got == nil {
			return nil, h
		}
		if got.equal(s) {
			t.follow(k, got)
			return got, h
		}
	}
}

// follow records that the table returned s, of kind k, where the
// guess was not s: s becomes the guess after the shape returned
// before it.
func (t *Shapes) follow(k Kind, s *Shape) {
	if last := t.last[k]; last != nil {
		t.next[k][last.pos] = s
	}
	t.last[k] = s
}

// add stores s, not yet in the table, for kind k: in the first free
// slot from h, after doubling the slots if s would fill more than
// half of them. s takes the next position, and is the one returned.
func (t *Shapes) add(k Kind, h uint64, s *Shape) {
	n := len(t.next[k])
	if 2*(n+1) > len(t.slots[k]) {
		old := t.slots[k]
		t.slots[k] = make([]*Shape, max(2*len(old), minSlots))
		for _, o := range old {
			if o != nil {
				t.place(k, o.hash(), o)
			}
		}
	}
	t.place(k, h, s)
	s.pos = int32(n)
	t.next[k] = append(t.next[k], nil)
	t.follow(k, s)
}

// place puts s in kind k's first free slot from h.
func (t *Shapes) place(k Kind, h uint64, s *Shape) {
	slots := t.slots[k]
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i] != nil {
		i = (i + 1) & mask
	}
	slots[i] = s
}

// reset empties the table, keeping its storage.
func (t *Shapes) reset() {
	for k := range t.slots {
		clear(t.slots[k])
		clear(t.next[k])
		t.next[k] = t.next[k][:0]
	}
	t.last = [len(kindNames)]*Shape{}
}

var shapeSeed = maphash.MakeSeed()

// mix folds v into h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hash is a process-local hash of every field; Intern verifies a hit
// with equal, so its quality decides speed, not correctness. The short
// dtype and copy-direction strings are folded in byte by byte.
func (s *Shape) hash() uint64 {
	h := maphash.String(shapeSeed, s.Name)
	for i := 0; i < len(s.DType); i++ {
		h = h*31 + uint64(s.DType[i])
	}
	for i := 0; i < len(s.MemKind); i++ {
		h = h*31 + uint64(s.MemKind[i])
	}
	h = mix(h, uint64(s.Bytes))
	h = mix(h, uint64(s.FLOPs))
	h = mix(h, uint64(len(s.Dims)))
	for _, d := range s.Dims {
		h = mix(h, uint64(d))
	}
	if len(s.Extra) > 0 {
		// Map order is random: combine the entries commutatively.
		var x uint64
		for k, v := range s.Extra {
			x += mix(maphash.String(shapeSeed, k), math.Float64bits(v))
		}
		h = mix(h, x)
	}
	return h
}

// equal reports whether two shapes agree on every field; Extra values
// compare by bits, as hash sees them.
func (s *Shape) equal(o *Shape) bool {
	if s.Name != o.Name || s.Bytes != o.Bytes || s.FLOPs != o.FLOPs ||
		s.DType != o.DType || s.MemKind != o.MemKind ||
		!slices.Equal(s.Dims, o.Dims) || len(s.Extra) != len(o.Extra) {
		return false
	}
	if len(s.Extra) == 0 {
		return true
	}
	for k, v := range s.Extra {
		w, ok := o.Extra[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
