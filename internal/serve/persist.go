package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"maya"
)

// Snapshot errors, matchable with errors.Is.
var (
	// ErrSnapshotFormat marks a state file that is not a trace-store
	// snapshot at all (bad magic, or framing too corrupt to continue).
	ErrSnapshotFormat = errors.New("serve: not a maya trace-store snapshot")
	// ErrSnapshotEntry marks one corrupt entry inside an otherwise
	// readable snapshot; recovery skips the entry and keeps going.
	ErrSnapshotEntry = errors.New("serve: corrupt trace-store snapshot entry")
)

// snapMagic heads every snapshot file; the trailing byte is the
// snapshot format version.
var snapMagic = []byte("MAYASNAP\x01")

// Framing sanity bounds: lengths beyond these mean the framing itself
// is corrupt (e.g. a bit flip inside a length field), at which point
// recovery stops rather than reading garbage.
const (
	maxSnapMetaLen  = 1 << 20   // 1 MiB of JSON meta
	maxSnapTraceLen = 256 << 20 // 256 MiB per serialized trace
)

// SnapshotStats reports what a restore found. Skipped entries carry a
// typed EntryErr (errors.Is ErrSnapshotEntry) describing the first
// corruption seen; the store still serves every entry that validated.
type SnapshotStats struct {
	Loaded   int   `json:"loaded"`
	Skipped  int   `json:"skipped"`
	EntryErr error `json:"-"`
}

// snapshot writes the store's entries — oldest first, so replaying
// put() on restore reproduces the LRU recency order — as
// length-framed (meta JSON, raw trace) pairs. The raw bytes are the
// trace's own versioned, checksummed envelope (WriteTo), so every
// entry is independently verifiable on the way back in.
func (s *traceStore) snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := w.Write(snapMagic); err != nil {
		return err
	}
	var lenBuf [4]byte
	writeFrame := func(b []byte) error {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(b)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := w.Write(b)
		return err
	}
	for _, st := range s.entries.All() {
		meta, err := json.Marshal(st.meta)
		if err != nil {
			return err
		}
		if err := writeFrame(meta); err != nil {
			return err
		}
		if err := writeFrame(st.raw); err != nil {
			return err
		}
	}
	return nil
}

// persist atomically replaces the snapshot at path: write to a temp
// file in the same directory, fsync, rename. A crash at any point —
// including SIGKILL mid-write — leaves either the old snapshot or the
// new one, never a torn file.
func (s *traceStore) persist(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".maya-snap-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	if err := s.snapshot(bw); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: installing snapshot: %w", err)
	}
	return nil
}

// restoreTraceStore rebuilds a store from the snapshot at path. A
// missing file is an empty store. Every entry re-validates through
// maya.ReadTrace (magic, version, checksum) and a meta cross-check;
// corrupt entries are skipped with a typed error in the stats, and
// recovery continues with the next frame. Only unreadable framing —
// bad magic, an insane length — aborts the walk, returning whatever
// loaded before it alongside an ErrSnapshotFormat-wrapped error.
func restoreTraceStore(path string, maxEntries int) (*traceStore, SnapshotStats, error) {
	store := newTraceStore(maxEntries)
	var stats SnapshotStats
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return store, stats, nil
	}
	if err != nil {
		return store, stats, err
	}
	defer f.Close()
	r := bufio.NewReader(f)

	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapMagic) {
		return store, stats, fmt.Errorf("%w: bad magic in %s", ErrSnapshotFormat, path)
	}
	skip := func(err error) {
		stats.Skipped++
		if stats.EntryErr == nil {
			stats.EntryErr = fmt.Errorf("%w: %v", ErrSnapshotEntry, err)
		}
	}
	readFrame := func(bound int) ([]byte, error) {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if int(n) > bound {
			return nil, fmt.Errorf("%w: frame length %d exceeds bound %d", ErrSnapshotFormat, n, bound)
		}
		// Grow the buffer as bytes arrive rather than trusting the
		// length field: a crafted one must fail at EOF, not allocate
		// the bound first.
		var b bytes.Buffer
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF // a file may end only between frames
			}
			return nil, err
		}
		return b.Bytes(), nil
	}
	// Truncation or corrupt framing ends the walk: what loaded so far
	// still serves; the tail is lost and reported as such.
	broken := func(err error) error {
		stats.Skipped++
		if errors.Is(err, ErrSnapshotFormat) {
			return err
		}
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: truncated snapshot: %w", ErrSnapshotFormat, err)
	}
	for {
		metaRaw, err := readFrame(maxSnapMetaLen)
		if errors.Is(err, io.EOF) {
			return store, stats, nil // clean end of snapshot
		}
		if err != nil {
			return store, stats, broken(err)
		}
		raw, err := readFrame(maxSnapTraceLen)
		if err != nil {
			return store, stats, broken(err)
		}
		var meta TraceMeta
		if err := json.Unmarshal(metaRaw, &meta); err != nil {
			skip(fmt.Errorf("meta: %v", err))
			continue
		}
		if meta.Fingerprint == "" {
			skip(errors.New("meta missing fingerprint"))
			continue
		}
		// The payload carries its own checksummed envelope; a flipped
		// bit anywhere inside fails here and only costs this entry.
		tr, err := maya.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			skip(fmt.Errorf("trace %s: %v", meta.Fingerprint, err))
			continue
		}
		if tr.Workload() != meta.Workload || tr.TotalWorkers() != meta.TotalWorkers {
			skip(fmt.Errorf("trace %s: meta does not match payload", meta.Fingerprint))
			continue
		}
		store.put(raw, meta)
		stats.Loaded++
	}
}
