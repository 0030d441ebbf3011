package sim

import (
	"reflect"
	"slices"
	"sort"
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

	// Pass 1, the one walk over every op: each worker's streams, their
	// queue and row lengths, its event syncs, the job's collective groups,
	// and where the ops with a row entry are (synced[syncedStart[w]:
	// syncedStart[w+1]] for worker w), so that pass 2 visits only those.
	type groupStat struct{ n, maxSeq int }
	type streamStat struct{ row, queued int32 }
	groupOf := map[trace.CollKey]int32{}
	var stats []groupStat
	streamSet := map[int64]int32{} // a handle's place in counts
	var counts []streamStat
	hostRows := make([]int32, nw)
	var synced []int32
	syncedStart := make([]int, nw+1)
	x.streamStart = make([]int32, nw+1)
	x.rowStart = []int32{0}
	x.queueStart = []int32{0}
	for wi, w := range job.Workers {
		clear(streamSet)
		counts = counts[:0]
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind == trace.KindEventSync {
				hostRows[wi]++
				synced = append(synced, int32(i))
				continue
			}
			if !namesStream(op) {
				continue
			}
			c, ok := streamSet[op.Stream]
			if !ok {
				c = int32(len(counts))
				streamSet[op.Stream] = c
				counts = append(counts, streamStat{})
			}
			if op.Kind != trace.KindStreamSync {
				counts[c].queued++
			}
			if !inRow(op) {
				continue
			}
			counts[c].row++
			synced = append(synced, int32(i))
			if op.Kind != trace.KindCollective {
				continue
			}
			k := groupKey(op)
			g, ok := groupOf[k]
			if !ok {
				g = int32(len(stats))
				groupOf[k] = g
				stats = append(stats, groupStat{})
				x.groups = append(x.groups, collGroupID{key: k})
			}
			stats[g].n++
			stats[g].maxSeq = max(stats[g].maxSeq, op.Coll.Seq)
		}
		first := len(x.streamIDs)
		for id := range streamSet {
			x.streamIDs = append(x.streamIDs, id)
		}
		slices.Sort(x.streamIDs[first:])
		for _, id := range x.streamIDs[first:] {
			n := counts[streamSet[id]]
			x.rowStart = append(x.rowStart, x.rowStart[len(x.rowStart)-1]+n.row)
			x.queueStart = append(x.queueStart, x.queueStart[len(x.queueStart)-1]+n.queued)
		}
		x.streamStart[wi+1] = int32(len(x.streamIDs))
		syncedStart[wi+1] = len(synced)
	}
	for _, n := range hostRows {
		x.rowStart = append(x.rowStart, x.rowStart[len(x.rowStart)-1]+n)
	}
	x.rows = make([]int32, x.rowStart[len(x.rowStart)-1])
	for g := range x.groups {
		x.groups[g].base = x.dense
		x.groups[g].size = int32(min(stats[g].maxSeq, stats[g].n-1) + 1)
		x.dense += x.groups[g].size
	}
	x.expected = make([]int32, x.dense)

	// Pass 2, per worker, over its ops with a row entry: its event
	// slots, then its rows.
	type handle struct{ base, n int32 }
	evs := map[int64]handle{}
	var order []int64
	var extraEvents map[eventKey]int32
	var extraColls map[trace.CollKey]int32
	cursor := slices.Clone(x.rowStart[:len(x.rowStart)-1])
	for wi, w := range job.Workers {
		at := synced[syncedStart[wi]:syncedStart[wi+1]]
		clear(evs)
		order = order[:0]
		odd := false
		for _, i := range at {
			if op := &w.Ops[i]; op.Kind == trace.KindEventRecord {
				h := evs[op.Event]
				if h.n == 0 {
					order = append(order, op.Event)
				}
				h.n++
				evs[op.Event] = h
				odd = odd || op.EventVer < 0 || op.EventVer > int(h.n)
			}
		}
		for _, id := range order {
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
				row, slot = x.streamSlot(wi, op.Stream), x.collSlot(op, groupOf, &extraColls)
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

// compiledFrom reports whether x is Compile(job, participants): the
// same job and the same participants map, compared by identity, so a
// run whose Participants differ from the ones x counted joins with
// never reuses x.
func (x *Index) compiledFrom(job *trace.Job, participants map[trace.CollKey]int) bool {
	return x.job == job &&
		reflect.ValueOf(x.participants).UnsafePointer() == reflect.ValueOf(participants).UnsafePointer()
}

// collSlot returns the slot of a collective op: its group's base plus
// its call index, or for a call past the group's range a slot of its
// own, allocated on first sight in extra.
func (x *Index) collSlot(op *trace.Op, groupOf map[trace.CollKey]int32, extra *map[trace.CollKey]int32) int32 {
	g := &x.groups[groupOf[groupKey(op)]]
	if seq := op.Coll.Seq; seq < int(g.size) {
		return g.base + int32(seq)
	}
	k := trace.CollKeyOf(op)
	if *extra == nil {
		*extra = map[trace.CollKey]int32{}
	}
	s, ok := (*extra)[k]
	if !ok {
		s = int32(len(x.expected))
		(*extra)[k] = s
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
