package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by bench code around a call
// into a layer. Times are nanoseconds since the tracer was created;
// Op groups the spans of one benchmark op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced pass pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total time.Duration // sum of span durations
}

func (l layerTime) meanMS() float64 {
	if l.count == 0 {
		return 0
	}
	return ms(l.total) / float64(l.count)
}

// byName folds the spans into per-name totals.
func (t *tracer) byName() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		l := out[s.Name]
		l.count++
		l.total += time.Duration(s.End - s.Start)
		out[s.Name] = l
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
