package sim

import (
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"maya/internal/trace"
)

// Index is a job compiled for the engine. Everything the paper's wait
// maps key on — a (worker, stream) pair, a (worker, event, version)
// triple, a collective call — is a dense slot here, so a replay
// addresses streams, events and calls by slice index instead of
// hashing a key per op. An Index is a pure function of (job,
// participants), read-only once built and safe to share between
// concurrent runs: a capture compiles its job once and every replay
// reuses it.
//
//   - Streams. Worker w's distinct stream handles, ascending, are
//     streamIDs[streamStart[w]:streamStart[w+1]]; a stream's slot is
//     its position in streamIDs.
//   - Queues. The ops the host hands stream slot s are positions
//     queueStart[s]:queueStart[s+1] of one flat buffer, so an engine
//     sizes every stream's queue once and never grows it.
//   - Sync rows. Row s, for stream slot s, lists in op order the event
//     or collective slot of every record, wait and collective the
//     stream consumes; row len(streamIDs)+w lists the event slots of
//     worker w's event syncs. The engine walks a row with a cursor as
//     the stream (or host) reaches those ops, so no op carries a slot.
//   - Events. For each (worker, handle), versions 1..n, n the handle's
//     record count, are consecutive slots. A version outside that range
//     that a record names gets a slot of its own; a wait or sync on a
//     version no record names gets slot 0, which nothing completes.
//     Version 0, which the engine skips, is noEvent.
//   - Collectives. For each group — a communicator, and for point-to-
//     point calls one (src, dst) direction of it — calls 0..size-1 are
//     consecutive slots, size at most the group's op count; any other
//     call gets a slot of its own after them. expected[slot] is how
//     many joins release the call.
//
// Every table is sized by what the trace holds, not by the values its
// ops carry, so compiling any job costs O(ops).
type Index struct {
	job          *trace.Job
	participants map[trace.CollKey]int

	streamStart []int32
	streamIDs   []int64
	queueStart  []int32 // per stream slot, then one trailing total

	rowStart []int32 // offsets into rows: one row per stream slot, then one per worker
	rows     []int32

	events int32 // event slots, slot 0 included

	expected  []int32 // per collective slot
	groups    []collGroupID
	dense     int32           // collective slots the groups cover
	extraKeys []trace.CollKey // keys of the collective slots from dense on
}

// collGroupID is one collective group: its key with Seq zero, and its
// slots [base, base+size).
type collGroupID struct {
	key        trace.CollKey
	base, size int32
}

// eventKey names one version of one worker's event.
type eventKey struct {
	w   int
	ev  int64
	ver int
}

// noEvent is the row entry of a version-0 record, wait or sync.
const noEvent = -1

// Compile builds the index of job. participants overrides, per call,
// how many joins release it, as Options.Participants does; nil counts
// the job's own joins.
func Compile(job *trace.Job, participants map[trace.CollKey]int) *Index {
	x := &Index{job: job, participants: participants, events: 1}
	nw := len(job.Workers)
	s := compileScratches.Get().(*compileScratch)
	defer s.release()

	// Pass 1, the one walk over every op: each worker's streams, their
	// queue and row lengths, its event syncs, the job's collective
	// groups, and which ops have a row entry (a bit each in
	// synced[wordStart[w]:wordStart[w+1]] for worker w), so that pass 2
	// visits only those. Ops run on a stream in stretches, so an op
	// naming the stream of the op before it reuses that stream's place
	// without a lookup, as a collective of the previous one's group does.
	// The tables the index keeps grow in the scratch and are copied out
	// at their final size.
	hostRows := zeroed(s.hostRows, nw)
	wordStart := zeroed(s.wordStart, nw+1)
	for wi, w := range job.Workers {
		wordStart[wi+1] = wordStart[wi] + (len(w.Ops)+63)/64
	}
	synced := zeroed(s.synced, wordStart[nw])
	streamIDs, rowStart, queueStart := s.streamIDs, append(s.rowStart, 0), append(s.queueStart, 0)
	x.streamStart = make([]int32, nw+1)
	for wi, w := range job.Workers {
		marks := synced[wordStart[wi]:wordStart[wi+1]]
		clear(s.streamSet)
		s.counts = s.counts[:0]
		var last int64
		c := int32(-1) // last's place in counts; -1 before the worker's first stream op
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind == trace.KindEventSync {
				hostRows[wi]++
				marks[i/64] |= 1 << (i % 64)
				continue
			}
			if !namesStream(op) {
				continue
			}
			if c < 0 || op.Stream != last {
				var ok bool
				if c, ok = s.streamSet[op.Stream]; !ok {
					c = int32(len(s.counts))
					s.streamSet[op.Stream] = c
					s.counts = append(s.counts, streamStat{})
				}
				last = op.Stream
			}
			if op.Kind != trace.KindStreamSync {
				s.counts[c].queued++
			}
			if !inRow(op) {
				continue
			}
			s.counts[c].row++
			marks[i/64] |= 1 << (i % 64)
			if op.Kind != trace.KindCollective {
				continue
			}
			g, ok := s.group(op)
			if !ok {
				k := groupKey(op)
				g = int32(len(s.stats))
				s.groupOf[k] = g
				s.stats = append(s.stats, groupStat{})
				s.groups = append(s.groups, collGroupID{key: k})
			}
			s.stats[g].n++
			s.stats[g].maxSeq = max(s.stats[g].maxSeq, op.Coll.Seq)
		}
		first := len(streamIDs)
		for id := range s.streamSet {
			streamIDs = append(streamIDs, id)
		}
		slices.Sort(streamIDs[first:])
		for _, id := range streamIDs[first:] {
			n := s.counts[s.streamSet[id]]
			rowStart = append(rowStart, rowStart[len(rowStart)-1]+n.row)
			queueStart = append(queueStart, queueStart[len(queueStart)-1]+n.queued)
		}
		x.streamStart[wi+1] = int32(len(streamIDs))
	}
	for _, n := range hostRows {
		rowStart = append(rowStart, rowStart[len(rowStart)-1]+n)
	}
	s.streamIDs, s.rowStart, s.queueStart = streamIDs, rowStart, queueStart
	x.streamIDs, x.rowStart, x.queueStart = exact(streamIDs), exact(rowStart), exact(queueStart)
	x.rows = make([]int32, x.rowStart[len(x.rowStart)-1])
	x.groups = exact(s.groups)
	extra := 0 // calls past their group's slots get one each, at most
	for g := range x.groups {
		st := s.stats[g]
		x.groups[g].base = x.dense
		x.groups[g].size = int32(min(st.maxSeq, st.n-1) + 1)
		x.dense += x.groups[g].size
		if st.maxSeq >= st.n {
			extra += st.n
		}
	}
	x.expected = make([]int32, x.dense, int(x.dense)+extra)
	if extra > 0 {
		x.extraKeys = make([]trace.CollKey, 0, extra)
	}

	// Pass 2, per worker, over its ops with a row entry: its event
	// slots, then its rows.
	evs := s.evs
	var extraEvents map[eventKey]int32
	cursor := append(s.cursor, x.rowStart[:len(x.rowStart)-1]...)
	s.cursor = cursor
	for wi, w := range job.Workers {
		at := s.at[:0]
		for j, word := range synced[wordStart[wi]:wordStart[wi+1]] {
			for ; word != 0; word &= word - 1 {
				at = append(at, int32(64*j+bits.TrailingZeros64(word)))
			}
		}
		s.at = at
		clear(evs)
		s.order = s.order[:0]
		odd := false
		for _, i := range at {
			if op := &w.Ops[i]; op.Kind == trace.KindEventRecord {
				h := evs[op.Event]
				if h.n == 0 {
					s.order = append(s.order, op.Event)
				}
				h.n++
				evs[op.Event] = h
				odd = odd || op.EventVer < 0 || op.EventVer > int(h.n)
			}
		}
		for _, id := range s.order {
			h := evs[id]
			h.base = x.events
			x.events += h.n
			evs[id] = h
		}
		dense := func(op *trace.Op) (int32, bool) {
			h, ok := evs[op.Event]
			if v := op.EventVer; ok && v >= 1 && v <= int(h.n) {
				return h.base + int32(v) - 1, true
			}
			return 0, false
		}
		if odd {
			// A record naming a version its handle never reaches: a
			// hand-built or hostile trace, not one the emulator records.
			for _, i := range at {
				op := &w.Ops[i]
				if op.Kind != trace.KindEventRecord || op.EventVer == 0 {
					continue
				}
				if _, ok := dense(op); ok {
					continue
				}
				if extraEvents == nil {
					extraEvents = map[eventKey]int32{}
				}
				if k := (eventKey{wi, op.Event, op.EventVer}); extraEvents[k] == 0 {
					extraEvents[k] = x.events
					x.events++
				}
			}
		}
		eventSlot := func(op *trace.Op) int32 {
			if op.EventVer == 0 {
				return noEvent
			}
			if s, ok := dense(op); ok {
				return s
			}
			return extraEvents[eventKey{wi, op.Event, op.EventVer}] // 0 when no record names it
		}
		for _, i := range at {
			op := &w.Ops[i]
			var row, slot int32
			switch op.Kind {
			case trace.KindEventSync:
				row, slot = int32(len(x.streamIDs)+wi), eventSlot(op)
			case trace.KindCollective:
				g, _ := s.group(op)
				row, slot = x.streamSlot(wi, op.Stream), x.collSlot(op, g, s.extraColls)
				if participants == nil {
					x.expected[slot]++
				} else if x.expected[slot] == 0 {
					x.expected[slot] = int32(max(1, participants[trace.CollKeyOf(op)]))
				}
			default:
				row, slot = x.streamSlot(wi, op.Stream), eventSlot(op)
			}
			x.rows[cursor[row]] = slot
			cursor[row]++
		}
	}
	return x
}

// compileScratch is what Compile consults on its way and does not
// keep: pooled, so a compile allocates about what its index retains.
// Between compiles every slice is empty and every map clear.
type compileScratch struct {
	groupOf map[trace.CollKey]int32
	// lastKey is the key of the collective group that group found
	// last, lastGroup; -1 before it found any.
	lastKey   trace.CollKey
	lastGroup int32
	stats     []groupStat
	streamSet map[int64]int32 // a handle's place in counts
	counts    []streamStat
	hostRows  []int32
	// synced has a bit per op, set when the op has a row entry; worker
	// w's are words wordStart[w]:wordStart[w+1].
	synced    []uint64
	wordStart []int
	at        []int32 // a worker's ops with a row entry, ascending
	evs       map[int64]evHandle
	order     []int64
	// extraColls is each call past its group's slots and its own slot.
	extraColls map[trace.CollKey]int32
	cursor     []int32
	// The index's own tables as they grow, copied out at their final
	// size (exact).
	streamIDs            []int64
	rowStart, queueStart []int32
	groups               []collGroupID
}

// groupStat counts a collective group's ops and its largest call index.
type groupStat struct{ n, maxSeq int }

// streamStat counts a stream's row entries and queued ops.
type streamStat struct{ row, queued int32 }

// evHandle is one event handle's first slot and record count.
type evHandle struct{ base, n int32 }

var compileScratches = sync.Pool{New: func() any {
	return &compileScratch{
		lastGroup:  -1,
		groupOf:    map[trace.CollKey]int32{},
		streamSet:  map[int64]int32{},
		evs:        map[int64]evHandle{},
		extraColls: map[trace.CollKey]int32{},
	}
}}

// release empties the scratch and pools it.
func (s *compileScratch) release() {
	clear(s.groupOf)
	clear(s.streamSet)
	clear(s.evs)
	clear(s.extraColls)
	s.lastGroup = -1
	s.stats, s.counts, s.synced, s.at = s.stats[:0], s.counts[:0], s.synced[:0], s.at[:0]
	s.hostRows, s.wordStart, s.order, s.cursor = s.hostRows[:0], s.wordStart[:0], s.order[:0], s.cursor[:0]
	s.streamIDs, s.rowStart, s.queueStart, s.groups = s.streamIDs[:0], s.rowStart[:0], s.queueStart[:0], s.groups[:0]
	compileScratches.Put(s)
}

// group returns the collective group of op, if pass 1 has met it,
// hashing op's key only when the group is not the one it found last:
// a worker calls one group in stretches.
func (s *compileScratch) group(op *trace.Op) (int32, bool) {
	k := groupKey(op)
	if s.lastGroup >= 0 && k == s.lastKey {
		return s.lastGroup, true
	}
	g, ok := s.groupOf[k]
	if ok {
		s.lastKey, s.lastGroup = k, g
	}
	return g, ok
}

// exact returns a copy of s in storage of exactly its length.
func exact[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// compiledFrom reports whether x is Compile(job, participants): the
// same job and the same participants map, compared by identity, so a
// run whose Participants differ from the ones x counted joins with
// never reuses x.
func (x *Index) compiledFrom(job *trace.Job, participants map[trace.CollKey]int) bool {
	return x.job == job &&
		reflect.ValueOf(x.participants).UnsafePointer() == reflect.ValueOf(participants).UnsafePointer()
}

// collSlot returns the slot of a collective op in the given group:
// the group's base plus its call index, or for a call past the
// group's range a slot of its own, allocated on first sight in extra.
func (x *Index) collSlot(op *trace.Op, group int32, extra map[trace.CollKey]int32) int32 {
	g := &x.groups[group]
	if seq := op.Coll.Seq; seq < int(g.size) {
		return g.base + int32(seq)
	}
	k := trace.CollKeyOf(op)
	s, ok := extra[k]
	if !ok {
		s = int32(len(x.expected))
		extra[k] = s
		x.expected = append(x.expected, 0)
		x.extraKeys = append(x.extraKeys, k)
	}
	return s
}

// namesStream reports whether the host hands op to a stream, or (a
// stream sync) waits on one: the ops whose stream gets a slot.
func namesStream(op *trace.Op) bool {
	switch op.Kind {
	case trace.KindMark, trace.KindEventSync, trace.KindDeviceSync:
		return false
	case trace.KindCollective:
		return op.Coll.Seq >= 0
	}
	return true
}

// inRow reports whether a stream op has an entry in its stream's row.
func inRow(op *trace.Op) bool {
	switch op.Kind {
	case trace.KindEventRecord, trace.KindStreamWait, trace.KindCollective:
		return true
	}
	return false
}

// groupKey is a collective op's key with the call index dropped.
func groupKey(op *trace.Op) trace.CollKey {
	k := trace.CollKeyOf(op)
	k.Seq = 0
	return k
}

// streamSlot returns the slot of stream handle id on worker w.
func (x *Index) streamSlot(w int, id int64) int32 {
	lo, hi := x.streamStart[w], x.streamStart[w+1]
	i, _ := slices.BinarySearch(x.streamIDs[lo:hi], id)
	return lo + int32(i)
}

// queue returns the bounds of stream slot s's queue in the flat
// buffer.
func (x *Index) queue(s int32) (lo, hi int32) { return x.queueStart[s], x.queueStart[s+1] }

// queued returns the length of the flat queue buffer: every op the
// host hands a stream.
func (x *Index) queued() int { return int(x.queueStart[len(x.queueStart)-1]) }

// row returns sync row r.
func (x *Index) row(r int32) []int32 {
	lo, hi := x.rowStart[r], x.rowStart[r+1]
	return x.rows[lo:hi:hi]
}

// hostRow returns worker w's event-sync row.
func (x *Index) hostRow(w int) []int32 { return x.row(int32(len(x.streamIDs) + w)) }

// collKey returns the matching key of collective slot s.
func (x *Index) collKey(s int32) trace.CollKey {
	if s >= x.dense {
		return x.extraKeys[s-x.dense]
	}
	i := sort.Search(len(x.groups), func(i int) bool { return x.groups[i].base > s }) - 1
	k := x.groups[i].key
	k.Seq = int(s - x.groups[i].base)
	return k
}

// Bytes returns what the index retains besides the job it indexes
// and the participants map it was given: itself and the backing array
// of every table.
func (x *Index) Bytes() int {
	return int(unsafe.Sizeof(*x)) +
		4*(cap(x.streamStart)+cap(x.queueStart)+cap(x.rowStart)+cap(x.rows)+cap(x.expected)) +
		8*cap(x.streamIDs) +
		int(unsafe.Sizeof(collGroupID{}))*cap(x.groups) +
		int(unsafe.Sizeof(trace.CollKey{}))*cap(x.extraKeys)
}
