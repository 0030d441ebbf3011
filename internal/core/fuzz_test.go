package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"maya/internal/sim"
	"maya/internal/trace"
)

// fuzzCaptureBytes serializes one structurally complete capture as
// the seed the mutator works from. Hand-built rather than emulated:
// every fuzz worker process replays the seed corpus on startup, so
// the seed must cost microseconds, not an emulation run.
func fuzzCaptureBytes(f *testing.F) []byte {
	f.Helper()
	mk := func(rank int) *trace.Worker {
		w := &trace.Worker{Rank: rank, Device: "V100", World: 2, PeakBytes: 1 << 20}
		var shapes trace.Shapes
		dev := func(k trace.Kind, s *trace.Shape) {
			op := trace.OpOf(k, shapes.Intern(k, s))
			op.Stream, op.Dur = 7, time.Millisecond
			w.Append(op)
		}
		w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkSetupEnd})
		dev(trace.KindKernel, &trace.Shape{Name: "gemm", Dims: []int{64, 64}, FLOPs: 1 << 18, DType: "bf16"})
		dev(trace.KindKernel, &trace.Shape{Name: "gemm", Dims: []int{64, 64}, FLOPs: 1 << 18, DType: "bf16"})
		dev(trace.KindKernel, &trace.Shape{Name: "triton", Dims: []int{4096}, Bytes: 1 << 15, FLOPs: 1 << 15, DType: "fp16",
			Extra: map[string]float64{"triton_instrs": 9, "triton_loads": 3}})
		dev(trace.KindMemcpy, &trace.Shape{Name: "MemcpyHtoD", Bytes: 1 << 12, MemKind: "HtoD"})
		dev(trace.KindMemset, &trace.Shape{Name: "Memset", Bytes: 1 << 12})
		w.Append(trace.Op{Kind: trace.KindCollective, Stream: 7,
			Coll: &trace.Collective{Op: "ncclAllReduce", Bytes: 1 << 16, CommID: 0xc0, NRanks: 2, Rank: rank, Peer: -1},
			Dur:  time.Millisecond})
		w.Append(trace.Op{Kind: trace.KindDeviceSync})
		w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd})
		return w
	}
	job, err := trace.NewJob([]*trace.Worker{mk(0), mk(1)})
	if err != nil {
		f.Fatal(err)
	}
	c := &Capture{
		Workload: "fuzz-seed", Cluster: "8xV100", Topology: "auto",
		TotalWorkers: 2, UniqueWorkers: 2, Job: job,
		Comms:        map[uint64][]int{0xc0: {0, 1}},
		CommSizes:    map[uint64]int{0xc0: 2},
		PeakMemBytes: 1 << 20,
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// envelope wraps raw bytes as a trace payload of the given format
// version with a correct header and checksum, so mutations reach the
// payload decoders and the semantic layers instead of dying on the
// checksum.
func envelope(version uint16, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], version)
	buf.Write(u16[:])
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(len(payload)))
	buf.Write(u64[:])
	buf.Write(payload)
	binary.BigEndian.PutUint64(u64[:], payloadSum(payload))
	buf.Write(u64[:])
	return buf.Bytes()
}

// malformedOps are single ops that break what the trace's consumers
// assume: each would index or dereference its way into a panic (the
// first in trace.Participation, inside ReadCapture itself; the last
// past the end of a duration overlay) if the reader let it through.
var malformedOps = []struct{ name, op string }{
	{"collective without coll", `{"seq":0,"kind":"collective"}`},
	{"null coll", `{"seq":0,"kind":"collective","coll":null}`},
	{"negative comm rank", `{"seq":0,"kind":"collective","coll":{"op":"ncclSend","comm":1,"seq":0,"nranks":2,"rank":-1,"peer":1}}`},
	{"comm rank past the communicator", `{"seq":0,"kind":"collective","coll":{"op":"ncclAllReduce","comm":1,"seq":0,"nranks":2,"rank":2,"peer":-1}}`},
	{"peer below -1", `{"seq":0,"kind":"collective","coll":{"op":"ncclRecv","comm":1,"seq":0,"nranks":2,"rank":0,"peer":-2}}`},
	{"peer past the communicator", `{"seq":0,"kind":"collective","coll":{"op":"ncclSend","comm":1,"seq":0,"nranks":2,"rank":0,"peer":2}}`},
	{"empty communicator", `{"seq":0,"kind":"collective","coll":{"op":"ncclAllReduce","comm":1,"seq":0,"peer":-1}}`},
	{"seq that is not the op's index", `{"seq":1,"kind":"kernel","name":"gemm"}`},
	{"unknown op kind", `{"seq":0,"kind":"warp"}`},
	{"dims that are not ints", `{"seq":0,"kind":"kernel","name":"gemm","dims":[1.5]}`},
	{"extra that is not a number map", `{"seq":0,"kind":"kernel","name":"triton","extra":{"triton_instrs":"many"}}`},
}

// oneOpCapture is a checksummed version-1 capture whose job is one
// worker holding the given op.
func oneOpCapture(op string) []byte {
	return envelope(traceFormatJSON, []byte(`{"job":{"workers":[{"rank":0,"world":2,"ops":[`+op+`]}]}}`))
}

// Op presence flags of the binary form (see trace.Encoder).
const wireShape, wireColl = 1 << 1, 1 << 6

// binaryCapture is a checksummed binary capture whose job is one
// worker; body writes the worker's tables, counts and ops.
func binaryCapture(body func(e *trace.Encoder)) []byte {
	var e trace.Encoder
	e.Str("w")
	e.Str("8xV100")
	e.Str("")
	for range 6 { // worker counts, peak memory, stage times, rank emulations
		e.Varint(0)
	}
	e.Byte(captureHasJob)
	e.Len(0, true) // Comms
	e.Len(0, true) // CommSizes
	e.Len(0, true) // UniqueRanks
	e.Len(1, false)
	e.Varint(0) // rank
	e.Str("V100")
	e.Varint(2) // world
	e.Varint(0) // peak bytes
	e.Varint(0) // dedup
	e.Byte(0)   // oom
	body(&e)
	return envelope(TraceFormatVersion, e.B)
}

// gemmTables writes a string table ("gemm", "") and a shape table of
// one kernel shape named gemm.
func gemmTables(e *trace.Encoder) {
	e.Uvarint(2)
	e.Str("gemm")
	e.Str("")
	e.Uvarint(1)
	e.Byte(byte(trace.KindKernel))
	e.Uvarint(0) // name
	e.Uvarint(0) // dims
	e.Varint(0)  // bytes
	e.Varint(0)  // flops
	e.Uvarint(1) // dtype
	e.Uvarint(0) // extra
	e.Uvarint(1) // memKind
}

// malformedBinary are binary captures that break the table, kind and
// count checks the binary reader makes, or that it leaves to the
// collective validation both readers share.
var malformedBinary = []struct {
	name string
	blob []byte
}{
	{"shape index past the table", binaryCapture(func(e *trace.Encoder) {
		gemmTables(e)
		e.Uvarint(0)
		e.Len(1, false)
		e.Byte(byte(trace.KindKernel))
		e.Byte(wireShape)
		e.Uvarint(1)
	})},
	{"string index past the table", binaryCapture(func(e *trace.Encoder) {
		e.Uvarint(1)
		e.Str("gemm")
		e.Uvarint(1)
		e.Byte(byte(trace.KindKernel))
		e.Uvarint(5) // name
		for range 7 {
			e.Uvarint(0)
		}
		e.Uvarint(0)
		e.Len(0, false)
	})},
	{"op kind that is not its shape's", binaryCapture(func(e *trace.Encoder) {
		gemmTables(e)
		e.Uvarint(0)
		e.Len(1, false)
		e.Byte(byte(trace.KindMemcpy))
		e.Byte(wireShape)
		e.Uvarint(0)
	})},
	{"unknown op kind", binaryCapture(func(e *trace.Encoder) {
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Len(1, false)
		e.Byte(200)
		e.Byte(0)
	})},
	{"huge count", binaryCapture(func(e *trace.Encoder) {
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Len(1<<40, false)
	})},
	{"collective without its metadata", binaryCapture(func(e *trace.Encoder) {
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Len(1, false)
		e.Byte(byte(trace.KindCollective))
		e.Byte(0)
	})},
	{"collective beyond the count", binaryCapture(func(e *trace.Encoder) {
		e.Uvarint(1)
		e.Str("ncclSend")
		e.Uvarint(0)
		e.Uvarint(0)
		e.Len(1, false)
		e.Byte(byte(trace.KindCollective))
		e.Byte(wireColl)
		for _, v := range []int64{0, 1, 0, 2, 0, 1, 8} { // op, comm, seq, nranks, rank, peer, bytes
			e.Uvarint(uint64(v))
		}
	})},
}

// workersCapture is a checksummed version-1 capture whose job holds
// one worker per op list, ranks 0..n-1 of an n-rank world.
func workersCapture(ops ...string) []byte {
	ws := make([]string, len(ops))
	for r, o := range ops {
		ws[r] = fmt.Sprintf(`{"rank":%d,"world":%d,"ops":[%s]}`, r, len(ops), o)
	}
	return envelope(traceFormatJSON, []byte(`{"job":{"workers":[`+strings.Join(ws, ",")+`]}}`))
}

// extremeTraces are accepted captures whose values, not their sizes,
// are extreme: what the engine's compiler must still index in O(ops).
// deadlock marks the ones that block for good.
var extremeTraces = []struct {
	name     string
	blob     []byte
	deadlock bool
}{
	{"event version 1<<62", workersCapture(
		`{"seq":0,"kind":"kernel","stream":1,"name":"gemm","dur":1000},` +
			`{"seq":1,"kind":"eventRecord","stream":1,"event":3,"eventVer":4611686018427387904},` +
			`{"seq":2,"kind":"streamWaitEvent","stream":2,"event":3,"eventVer":4611686018427387904},` +
			`{"seq":3,"kind":"eventSync","event":3,"eventVer":4611686018427387904},` +
			`{"seq":4,"kind":"deviceSync"}`), false},
	{"wait on a version never recorded", workersCapture(
		`{"seq":0,"kind":"eventRecord","stream":1,"event":3,"eventVer":1},` +
			`{"seq":1,"kind":"streamWaitEvent","stream":2,"event":3,"eventVer":2},` +
			`{"seq":2,"kind":"kernel","stream":2,"name":"gemm","dur":1000},` +
			`{"seq":3,"kind":"deviceSync"}`), true},
	{"collective with fewer arrivals than expected", workersCapture(
		`{"seq":0,"kind":"collective","stream":1,"coll":{"op":"ncclAllReduce","comm":1,"seq":0,"nranks":2,"rank":0,"peer":-1}},`+
			`{"seq":1,"kind":"deviceSync"}`,
		`{"seq":0,"kind":"eventSync","event":5,"eventVer":1},`+
			`{"seq":1,"kind":"collective","stream":1,"coll":{"op":"ncclAllReduce","comm":1,"seq":0,"nranks":2,"rank":1,"peer":-1}},`+
			`{"seq":2,"kind":"deviceSync"}`), true},
	{"call index 1<<62 on stream -1<<62", workersCapture(
		`{"seq":0,"kind":"collective","stream":-4611686018427387904,"coll":{"op":"ncclSend","comm":1,"seq":4611686018427387904,"nranks":2,"rank":0,"peer":1}},`+
			`{"seq":1,"kind":"deviceSync"}`,
		`{"seq":0,"kind":"collective","stream":9,"coll":{"op":"ncclRecv","comm":1,"seq":4611686018427387904,"nranks":2,"rank":1,"peer":0}},`+
			`{"seq":1,"kind":"deviceSync"}`), false},
}

// fuzzHorizon bounds the simulated time an accepted capture replays.
const fuzzHorizon = time.Second

// TestExtremeTracesCompileInOpsAndSimulate holds the engine's compiler
// to O(ops) on traces whose values are extreme — an event version of
// 2^62 compiles in under 1 MiB — and requires each to simulate to a
// report or a typed deadlock.
func TestExtremeTracesCompileInOpsAndSimulate(t *testing.T) {
	for _, c := range extremeTraces {
		capt, err := ReadCapture(bytes.NewReader(c.blob))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		parts := trace.Participation(capt.Job)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := sim.Compile(capt.Job, parts)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: compiling allocated %d bytes, want under 1 MiB", c.name, n)
		}
		_, err = sim.Run(context.Background(), capt.Job, sim.Options{Participants: parts, Index: x, TimeLimit: fuzzHorizon})
		if c.deadlock != errors.Is(err, sim.ErrDeadlock) || (!c.deadlock && err != nil) {
			t.Errorf("%s: simulating gave %v, want a deadlock: %t", c.name, err, c.deadlock)
		}
	}
}

func TestReadCaptureRejectsMalformedOps(t *testing.T) {
	for _, c := range malformedOps {
		got, err := ReadCapture(bytes.NewReader(oneOpCapture(c.op)))
		if !errors.Is(err, ErrTraceFormat) {
			t.Errorf("%s: capture %v, err = %v, want ErrTraceFormat", c.name, got != nil, err)
		}
	}
	for _, c := range malformedBinary {
		got, err := ReadCapture(bytes.NewReader(c.blob))
		if !errors.Is(err, ErrTraceFormat) {
			t.Errorf("binary %s: capture %v, err = %v, want ErrTraceFormat", c.name, got != nil, err)
		}
	}
	// The same shape with its metadata in place loads.
	ok := `{"seq":0,"kind":"collective","coll":{"op":"ncclSend","comm":1,"seq":0,"nranks":2,"rank":0,"peer":1}}`
	if _, err := ReadCapture(bytes.NewReader(oneOpCapture(ok))); err != nil {
		t.Errorf("well-formed collective rejected: %v", err)
	}
}

// FuzzReadTrace feeds the trace reader hostile bytes three ways: the
// raw input as-is (header, length and checksum handling) and wrapped
// in a valid envelope of either version (the JSON and binary payload
// decoders and semantic validation, e.g. null workers, collectives
// without metadata, table indexes). Whatever arrives, ReadCapture must
// reject with one of its typed errors — never panic, never
// over-allocate on a crafted length field — or return a capture that
// round-trips stably: writing it and reading it back gives a
// deep-equal capture, interned shapes included, which writes the same
// bytes again. An accepted capture's job then compiles for the engine
// and simulates, under a one-second horizon, to a report or
// sim.ErrDeadlock.
func FuzzReadTrace(f *testing.F) {
	valid := fuzzCaptureBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated payload
	f.Add(valid[:len(traceMagic)+2+4]) // truncated header
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40 // payload bit flip: checksum must catch it
	f.Add(corrupt)
	badver := append([]byte(nil), valid...)
	badver[len(traceMagic)] ^= 0xff // version bump: ErrTraceVersion
	f.Add(badver)
	f.Add(envelope(traceFormatJSON, []byte(`{}`)))
	f.Add(envelope(traceFormatJSON, []byte(`{"job":{"Workers":[null]}}`)))
	f.Add(envelope(traceFormatJSON, []byte(`{"total_workers":-1,"job":{"Workers":[]}}`)))
	for _, c := range malformedOps {
		f.Add(oneOpCapture(c.op))
	}
	// Device ops whose shapes the reader interns, one field at a time,
	// a shape repeated, and shape fields on an op that records none.
	for _, op := range []string{
		`{"seq":0,"kind":"kernel","name":"gemm","dims":[1,64,64,64],"bytes":24576,"flops":524288,"dtype":"bf16"},` +
			`{"seq":1,"kind":"kernel","name":"gemm","dims":[1,64,64,64],"bytes":24576,"flops":524288,"dtype":"bf16"}`,
		`{"seq":0,"kind":"kernel","name":"triton","dims":[4096],"extra":{"triton_instrs":9,"triton_loads":3}}`,
		`{"seq":0,"kind":"memcpy","stream":2,"name":"MemcpyDtoH","bytes":16384,"memKind":"DtoH"}`,
		`{"seq":0,"kind":"memset","name":"Memset","bytes":4096}`,
		`{"seq":0,"kind":"kernel","dims":[]}`,
		`{"seq":0,"kind":"hostDelay","dims":[3],"memKind":"HtoD","dur":5}`,
	} {
		f.Add(oneOpCapture(op))
	}
	for _, c := range malformedBinary {
		f.Add(c.blob)
	}
	for _, c := range extremeTraces {
		f.Add(c.blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, envelope(traceFormatJSON, data), envelope(TraceFormatVersion, data)} {
			c, err := ReadCapture(bytes.NewReader(blob))
			if err != nil {
				if !errors.Is(err, ErrTraceFormat) && !errors.Is(err, ErrTraceVersion) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped rejection: %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if _, err := c.WriteTo(&out); err != nil {
				t.Fatalf("accepted capture fails to re-serialize: %v", err)
			}
			back, err := ReadCapture(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("re-serialized capture is rejected: %v", err)
			}
			if !reflect.DeepEqual(back, c) {
				t.Fatalf("capture does not round-trip:\n got %+v\nwant %+v", back, c)
			}
			var again bytes.Buffer
			if _, err := back.WriteTo(&again); err != nil {
				t.Fatalf("round-tripped capture fails to re-serialize: %v", err)
			}
			if !bytes.Equal(again.Bytes(), out.Bytes()) {
				t.Fatalf("round-tripped capture writes %d bytes that differ from the %d it was read from", again.Len(), out.Len())
			}
			if c.Job == nil {
				continue
			}
			parts := trace.Participation(c.Job)
			o := sim.Options{Participants: parts, Index: sim.Compile(c.Job, parts), TimeLimit: fuzzHorizon}
			if _, err := sim.Run(context.Background(), c.Job, o); err != nil && !errors.Is(err, sim.ErrDeadlock) {
				t.Fatalf("accepted capture fails to simulate: %v", err)
			}
		}
	})
}
