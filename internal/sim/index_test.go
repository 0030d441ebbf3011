package sim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"maya/internal/trace"
)

// extremeJob names values no recorded trace holds: event versions of
// 2^62 and -2, waits on versions nothing records, a call index of 2^62
// and a stream handle of -2^62.
func extremeJob(t *testing.T) *trace.Job {
	w0 := worker(0, 2,
		kernel(1, time.Millisecond),
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 3, EventVer: 1 << 62},
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 3, EventVer: 1 << 62},
		trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 4, EventVer: -2},
		trace.Op{Kind: trace.KindEventSync, Event: 4, EventVer: -2},
		trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 3, EventVer: 7},
		coll(-1<<62, 9, 1<<62, 2, 0, time.Millisecond),
		coll(-1<<62, 9, 0, 2, 0, time.Millisecond),
	)
	w1 := worker(1, 2,
		coll(5, 9, 1<<62, 2, 1, time.Millisecond),
		trace.Op{Kind: trace.KindEventSync, Event: 8, EventVer: 1},
	)
	return job(t, w0, w1)
}

// TestCompileSlotsAreKeys pins the compiler. Walking each row in op
// order, as the engine does: two ops share an event slot exactly when
// they name the same (worker, event, version), a version no record
// names getting the never-completed slot 0; two collectives share a
// slot exactly when they share a CollKey, which collKey reads back and
// whose joins expected counts, the same counts trace.Participation
// gives; every stream resolves to its own handle; every row is
// consumed exactly; and every stream's queue window holds exactly the
// ops the host hands it, the windows tiling the flat buffer in slot
// order.
func TestCompileSlotsAreKeys(t *testing.T) {
	jobs := []*trace.Job{physicalFixture(t), overlayJob(t), extremeJob(t)}
	for seed := int64(0); seed < 25; seed++ {
		jobs = append(jobs, chainFixture(t, seed))
	}
	for i, j := range jobs {
		x := Compile(j, nil)
		recorded := map[eventKey]bool{}
		for w, wk := range j.Workers {
			for _, op := range wk.Ops {
				if op.Kind == trace.KindEventRecord {
					recorded[eventKey{w, op.Event, op.EventVer}] = true
				}
			}
		}
		evSlot, evKey := map[eventKey]int32{}, map[int32]eventKey{}
		collSlot, joins := map[trace.CollKey]int32{}, map[int32]int32{}
		queued := make([]int32, len(x.streamIDs))
		for w, wk := range j.Workers {
			at := map[int32]int{}
			for k := range wk.Ops {
				op := &wk.Ops[k]
				if namesStream(op) && op.Kind != trace.KindStreamSync {
					queued[x.streamSlot(w, op.Stream)]++
				}
				var row int32
				switch {
				case op.Kind == trace.KindEventSync:
					row = int32(len(x.streamIDs) + w)
				case namesStream(op) && inRow(op):
					row = x.streamSlot(w, op.Stream)
					if x.streamIDs[row] != op.Stream {
						t.Fatalf("job %d worker %d op %d: stream %d resolves to handle %d", i, w, k, op.Stream, x.streamIDs[row])
					}
				default:
					continue
				}
				slot := x.row(row)[at[row]]
				at[row]++
				switch {
				case op.Kind == trace.KindCollective:
					key := trace.CollKeyOf(op)
					if s, ok := collSlot[key]; ok && s != slot {
						t.Fatalf("job %d: call %+v has slots %d and %d", i, key, s, slot)
					}
					collSlot[key] = slot
					if got := x.collKey(slot); got != key {
						t.Fatalf("job %d: slot %d reads back %+v, want %+v", i, slot, got, key)
					}
					joins[slot]++
				case op.EventVer == 0:
					if slot != noEvent {
						t.Fatalf("job %d worker %d op %d: version 0 has slot %d", i, w, k, slot)
					}
				default:
					key := eventKey{w, op.Event, op.EventVer}
					if !recorded[key] {
						if slot != 0 {
							t.Fatalf("job %d: unrecorded %+v has slot %d, want 0", i, key, slot)
						}
						continue
					}
					if slot <= 0 || slot >= x.events {
						t.Fatalf("job %d: %+v has slot %d outside [1, %d)", i, key, slot, x.events)
					}
					if s, ok := evSlot[key]; ok && s != slot {
						t.Fatalf("job %d: %+v has slots %d and %d", i, key, s, slot)
					}
					if other, ok := evKey[slot]; ok && other != key {
						t.Fatalf("job %d: %+v and %+v share slot %d", i, key, other, slot)
					}
					evSlot[key], evKey[slot] = slot, key
				}
			}
			rows := []int32{int32(len(x.streamIDs) + w)}
			for r := x.streamStart[w]; r < x.streamStart[w+1]; r++ {
				rows = append(rows, r)
			}
			for _, r := range rows {
				if at[r] != len(x.row(r)) {
					t.Fatalf("job %d worker %d: row %d consumed %d of %d entries", i, w, r, at[r], len(x.row(r)))
				}
			}
		}
		for s, n := range queued {
			lo, hi := x.queue(int32(s))
			if lo != x.queueStart[s] || hi-lo != n {
				t.Fatalf("job %d: stream slot %d has queue [%d, %d), want %d ops from %d", i, s, lo, hi, n, x.queueStart[s])
			}
		}
		if x.queued() != int(x.queueStart[len(queued)]) {
			t.Fatalf("job %d: flat queue of %d, want %d", i, x.queued(), x.queueStart[len(queued)])
		}
		if len(joins) != len(collSlot) {
			t.Fatalf("job %d: %d calls on %d slots", i, len(collSlot), len(joins))
		}
		for s, n := range joins {
			if x.expected[s] != n {
				t.Fatalf("job %d: slot %d expects %d joins, has %d", i, s, x.expected[s], n)
			}
		}
		if y := Compile(j, trace.Participation(j)); !slices.Equal(y.expected, x.expected) {
			t.Fatalf("job %d: compiling with the job's own participation expects %v joins, without %v", i, y.expected, x.expected)
		}
	}
}

// TestIndexOfOtherParticipantsRecompiles passes an Index together with
// Participants other than the ones it was compiled from: Reset must
// count joins by the run's Participants, not the Index's. The job's
// one collective has one traced joiner; expecting two deadlocks it.
func TestIndexOfOtherParticipantsRecompiles(t *testing.T) {
	w0 := worker(0, 2, coll(0, 1, 0, 2, 0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	w1 := worker(1, 2, kernel(0, time.Millisecond), trace.Op{Kind: trace.KindDeviceSync})
	j := job(t, w0, w1)
	two := map[trace.CollKey]int{{Comm: 1, Seq: 0}: 2}
	one := map[trace.CollKey]int{{Comm: 1, Seq: 0}: 1}

	_, err := Run(context.Background(), j, timing(j, Options{Participants: two, Index: Compile(j, nil)}))
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("index of nil participants run with two expected joins: err = %v, want ErrDeadlock", err)
	}
	for _, p := range []map[trace.CollKey]int{nil, one} {
		if _, err := Run(context.Background(), j, timing(j, Options{Participants: p, Index: Compile(j, two)})); err != nil {
			t.Fatalf("index of two expected joins run with %v: %v", p, err)
		}
	}
	x := Compile(j, one)
	if !x.compiledFrom(j, one) || x.compiledFrom(j, map[trace.CollKey]int{{Comm: 1, Seq: 0}: 1}) || x.compiledFrom(j, nil) {
		t.Fatal("compiledFrom must match its own participants map by identity only")
	}
}

// TestIndexBytesCountsEveryTable pins Index.Bytes to what the index
// holds: the struct and the backing array of every slice field. An
// index table added without counting it fails here, and so would the
// capture accounting built on Bytes.
func TestIndexBytesCountsEveryTable(t *testing.T) {
	for _, j := range []*trace.Job{physicalFixture(t), extremeJob(t), chainFixture(t, 3)} {
		x := Compile(j, nil)
		v := reflect.ValueOf(x).Elem()
		want := int(v.Type().Size())
		for i := range v.NumField() {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				want += f.Cap() * int(f.Type().Elem().Size())
			case reflect.Int32:
			case reflect.Pointer, reflect.Map: // the job and participants: the caller's
			default:
				t.Fatalf("Index.%s is a %v: count it in Bytes and here", v.Type().Field(i).Name, f.Kind())
			}
		}
		if got := x.Bytes(); got != want {
			t.Fatalf("Bytes() = %d, the index holds %d", got, want)
		}
	}
}
