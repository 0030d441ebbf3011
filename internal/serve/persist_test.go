package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"maya"
)

// testTraceBlob captures one real trace (oracle annotation, no
// training) and returns its serialized envelope plus store meta, the
// same shape handleCapture archives.
func testTraceBlob(t *testing.T, microBatches int) ([]byte, TraceMeta) {
	t.Helper()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.MicroBatches = microBatches
	wl, _, err := spec.build(pred.Cluster())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pred.Capture(t.Context(), wl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), TraceMeta{
		Fingerprint:   fingerprintOf(buf.Bytes()),
		Workload:      tr.Workload(),
		Cluster:       tr.Cluster(),
		TotalWorkers:  tr.TotalWorkers(),
		UniqueWorkers: tr.UniqueWorkers(),
		PeakMemBytes:  tr.PeakMemBytes(),
		OOM:           tr.OOM(),
		SizeBytes:     buf.Len(),
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	blobA, metaA := testTraceBlob(t, 2)
	blobB, metaB := testTraceBlob(t, 4)

	store := newTraceStore(8)
	store.put(blobA, metaA)
	store.put(blobB, metaB)
	// Touch A so the LRU order is B (oldest), A (newest).
	if _, ok := store.get(metaA.Fingerprint); !ok {
		t.Fatal("lost entry A")
	}

	path := filepath.Join(t.TempDir(), "traces.snap")
	if err := store.persist(path); err != nil {
		t.Fatal(err)
	}

	restored, stats, err := restoreTraceStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 2 || stats.Skipped != 0 || stats.EntryErr != nil {
		t.Fatalf("stats = %+v", stats)
	}
	for _, m := range []TraceMeta{metaA, metaB} {
		st, ok := restored.get(m.Fingerprint)
		if !ok {
			t.Fatalf("restored store missing %s", m.Fingerprint)
		}
		if st.meta != m {
			t.Errorf("meta changed across the snapshot: %+v vs %+v", st.meta, m)
		}
		want := blobA
		if m.Fingerprint == metaB.Fingerprint {
			want = blobB
		}
		if !bytes.Equal(st.raw, want) {
			t.Errorf("raw bytes changed across the snapshot for %s", m.Fingerprint)
		}
	}

	// Recency order survived: capacity pressure evicts B (the LRU
	// tail), not the recently touched A.
	restored2, _, err := restoreTraceStore(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	blobC, metaC := testTraceBlob(t, 8)
	restored2.put(blobC, metaC)
	if _, ok := restored2.get(metaB.Fingerprint); ok {
		t.Error("LRU tail (B) survived capacity pressure; recency order lost in the snapshot")
	}
	if _, ok := restored2.get(metaA.Fingerprint); !ok {
		t.Error("recently used entry (A) evicted; recency order lost in the snapshot")
	}

	// A missing snapshot is an empty store, not an error.
	empty, stats, err := restoreTraceStore(filepath.Join(t.TempDir(), "nope.snap"), 8)
	if err != nil || stats.Loaded != 0 || empty.len() != 0 {
		t.Fatalf("missing snapshot: store %d entries, stats %+v, err %v", empty.len(), stats, err)
	}
}

// TestSnapshotCorruptEntry mirrors TestReadTraceCorruption at the
// store level: a flipped bit inside one entry's payload must skip
// exactly that entry with a typed error, and every other entry must
// recover.
func TestSnapshotCorruptEntry(t *testing.T) {
	blobA, metaA := testTraceBlob(t, 2)
	blobB, metaB := testTraceBlob(t, 4)
	blobC, metaC := testTraceBlob(t, 8)

	store := newTraceStore(8)
	store.put(blobA, metaA)
	store.put(blobB, metaB)
	store.put(blobC, metaC)
	path := filepath.Join(t.TempDir(), "traces.snap")
	if err := store.persist(path); err != nil {
		t.Fatal(err)
	}

	// Locate the middle entry's payload by walking the framing, then
	// flip one bit in it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(snapMagic)
	frame := func() (start, end int) {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		start, end = off, off+n
		off = end
		return
	}
	frame()              // entry 0 meta
	frame()              // entry 0 raw
	frame()              // entry 1 meta
	s, e := frame()      // entry 1 raw (= blobB, snapshot is oldest-first)
	raw[(s+e)/2] ^= 0x01 // one flipped bit mid-payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	restored, stats, err := restoreTraceStore(path, 8)
	if err != nil {
		t.Fatalf("per-entry corruption must not fail the restore: %v", err)
	}
	if stats.Loaded != 2 || stats.Skipped != 1 {
		t.Fatalf("stats = %+v, want 2 loaded / 1 skipped", stats)
	}
	if !errors.Is(stats.EntryErr, ErrSnapshotEntry) {
		t.Fatalf("EntryErr = %v, want ErrSnapshotEntry", stats.EntryErr)
	}
	if _, ok := restored.get(metaB.Fingerprint); ok {
		t.Error("corrupt entry served")
	}
	for _, m := range []TraceMeta{metaA, metaC} {
		st, ok := restored.get(m.Fingerprint)
		if !ok {
			t.Fatalf("healthy entry %s lost to a neighbor's corruption", m.Fingerprint)
		}
		if _, err := maya.ReadTrace(bytes.NewReader(st.raw)); err != nil {
			t.Errorf("recovered entry %s does not parse: %v", m.Fingerprint, err)
		}
	}
}

func TestSnapshotTruncatedAndBadMagic(t *testing.T) {
	blobA, metaA := testTraceBlob(t, 2)
	blobB, metaB := testTraceBlob(t, 4)
	store := newTraceStore(8)
	store.put(blobA, metaA)
	store.put(blobB, metaB)
	path := filepath.Join(t.TempDir(), "traces.snap")
	if err := store.persist(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated mid-second-entry: the first entry still recovers, the
	// tail is reported as a format error.
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	restored, stats, err := restoreTraceStore(path, 8)
	if !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("truncated restore err = %v, want ErrSnapshotFormat", err)
	}
	if stats.Loaded != 1 || restored.len() != 1 {
		t.Fatalf("truncated restore: %d loaded (stats %+v), want 1", restored.len(), stats)
	}

	// Not a snapshot at all.
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restoreTraceStore(path, 8); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("bad magic err = %v, want ErrSnapshotFormat", err)
	}
}

// TestTraceStoreEvictionAccounting pins the store bound: evictions at
// capacity are counted and observed, never silent.
func TestTraceStoreEvictionAccounting(t *testing.T) {
	blobA, metaA := testTraceBlob(t, 2)
	blobB, metaB := testTraceBlob(t, 4)
	blobC, metaC := testTraceBlob(t, 8)

	store := newTraceStore(2)
	var evicted []string
	store.onEvict = func(m TraceMeta) { evicted = append(evicted, m.Fingerprint) }
	store.put(blobA, metaA)
	store.put(blobB, metaB)
	if got := store.Evictions(); got != 0 {
		t.Fatalf("evictions below capacity = %d, want 0", got)
	}
	store.put(blobC, metaC)
	if store.len() != 2 {
		t.Fatalf("store size = %d, want the bound 2", store.len())
	}
	if got := store.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if len(evicted) != 1 || evicted[0] != metaA.Fingerprint {
		t.Fatalf("onEvict saw %v, want the LRU tail %s", evicted, metaA.Fingerprint)
	}
	if _, ok := store.get(metaA.Fingerprint); ok {
		t.Error("evicted entry still served")
	}
}

// TestServerStateRecovery is the crash-safety acceptance test over
// the real endpoints: a server killed without Drain (the snapshot
// written eagerly at put time stands in for the SIGKILL survivor)
// restores every checksummed trace on reboot, and a corrupted
// snapshot entry is skipped with the rest recovered.
func TestServerStateRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.snap")

	// Boot 1: capture a trace; the store snapshots on put, so a
	// SIGKILL after the response still has it on disk.
	_, ts := newTestServer(t, func(c *Config) { c.StatePath = path })
	resp, raw := postJSON(t, ts.URL+"/v1/capture", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture: %d (%s)", resp.StatusCode, raw)
	}
	var meta TraceMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot written at put time: %v", err)
	}

	// Boot 2: a fresh server on the same state path serves the trace
	// without re-capturing.
	s2, ts2 := newTestServer(t, func(c *Config) { c.StatePath = path })
	if s2.snapStats.Loaded != 1 || s2.snapStats.Skipped != 0 {
		t.Fatalf("boot 2 snapshot stats = %+v, want 1 loaded", s2.snapStats)
	}
	get, err := http.Get(ts2.URL + "/v1/traces/" + meta.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("recovered trace get: %d", get.StatusCode)
	}
	if _, err := maya.ReadTrace(bytes.NewReader(blob)); err != nil {
		t.Fatalf("recovered trace does not parse: %v", err)
	}
	hresp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var hb healthzBody
	if err := json.Unmarshal(hraw, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.TracesRecovered != 1 || hb.TracesStored != 1 {
		t.Fatalf("healthz recovery stats: %+v", hb)
	}

	// Corrupt the snapshot's only entry: boot 3 must come up serving,
	// with the entry skipped and reported.
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)-20] ^= 0x01
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, func(c *Config) { c.StatePath = path })
	if s3.snapStats.Loaded != 0 || s3.snapStats.Skipped != 1 {
		t.Fatalf("boot 3 snapshot stats = %+v, want 0 loaded / 1 skipped", s3.snapStats)
	}
	if !errors.Is(s3.snapStats.EntryErr, ErrSnapshotEntry) {
		t.Fatalf("boot 3 EntryErr = %v, want ErrSnapshotEntry", s3.snapStats.EntryErr)
	}
	// The degraded boot still predicts.
	presp, praw := postJSON(t, ts3.URL+"/v1/predict", smallSpec(), nil)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("boot 3 predict: %d (%s)", presp.StatusCode, praw)
	}
}

// snapshotOf frames (meta, raw trace) pairs as a snapshot file.
func snapshotOf(frames ...[]byte) []byte {
	b := append([]byte(nil), snapMagic...)
	for _, f := range frames {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
}

// TestSnapshotLyingFrameLength restores a 19-byte snapshot whose one
// entry claims a 256 MiB trace: the restore must fail as truncation
// without allocating what the length field claims.
func TestSnapshotLyingFrameLength(t *testing.T) {
	raw := snapshotOf([]byte("{}"))
	raw = binary.LittleEndian.AppendUint32(raw, maxSnapTraceLen)
	if len(raw) != 19 {
		t.Fatalf("snapshot is %d bytes, want 19", len(raw))
	}
	path := filepath.Join(t.TempDir(), "traces.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := restoreTraceStore(path, 8)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotFormat) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrSnapshotFormat wrapping io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("restoring 19 bytes allocated %d bytes", got)
	}
}

// FuzzRestoreSnapshot feeds the snapshot reader hostile state files.
// Whatever arrives, restoreTraceStore must not panic, must report
// broken framing only as ErrSnapshotFormat and a skipped entry only as
// ErrSnapshotEntry, and what it restored must come back entry for
// entry, in recency order, from a second snapshot. Seeds are
// hand-framed around traces with no job, so they cost no emulation.
func FuzzRestoreSnapshot(f *testing.F) {
	sum := fnv.New64a()
	payload := []byte(`{"workload":"w","total_workers":1}`)
	sum.Write(payload)
	v1 := binary.BigEndian.AppendUint16([]byte("MAYATR"), 1)
	v1 = binary.BigEndian.AppendUint64(v1, uint64(len(payload)))
	v1 = binary.BigEndian.AppendUint64(append(v1, payload...), sum.Sum64())
	tr, err := maya.ReadTrace(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	v2 := buf.Bytes()
	meta := func(fp, workload string) []byte {
		b, err := json.Marshal(TraceMeta{Fingerprint: fp, Workload: workload, TotalWorkers: 1})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := snapshotOf(meta("a", "w"), v1, meta("b", "w"), v2)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(snapshotOf(meta("a", "w"), v2[:len(v2)-1], meta("b", "w"), v2))
	f.Add(snapshotOf([]byte("{"), v1))
	f.Add(snapshotOf(meta("", "w"), v1))
	f.Add(snapshotOf(meta("a", "other"), v1))
	f.Add(snapshotOf(meta("a", "w"), v1, meta("a", "w"), v2))
	f.Add(binary.LittleEndian.AppendUint32(snapshotOf([]byte("{}")), maxSnapTraceLen))
	f.Add(binary.LittleEndian.AppendUint32(snapshotOf(), maxSnapMetaLen+1))
	f.Add([]byte("not a snapshot"))

	entries := func(s *traceStore) []storedTrace {
		var out []storedTrace
		for _, st := range s.entries.All() {
			out = append(out, *st)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "traces.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, stats, err := restoreTraceStore(path, 4)
		if err != nil && !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("untyped restore error: %v", err)
		}
		if stats.EntryErr != nil && !errors.Is(stats.EntryErr, ErrSnapshotEntry) {
			t.Fatalf("untyped entry error: %v", stats.EntryErr)
		}
		again := filepath.Join(dir, "again.snap")
		if err := store.persist(again); err != nil {
			t.Fatal(err)
		}
		back, stats, err := restoreTraceStore(again, 4)
		if err != nil || stats.Skipped != 0 {
			t.Fatalf("restored entries snapshot to a file that restores with %+v, %v", stats, err)
		}
		if got, want := entries(back), entries(store); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored entries do not survive a second snapshot:\n got %+v\nwant %+v", got, want)
		}
	})
}
