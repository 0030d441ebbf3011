package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"maya/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// timelineFixture is a small two-worker job touching every timeline
// event class: kernels, an event wait, a collective, a host stretch
// and a mark.
func timelineFixture(t *testing.T) *trace.Job {
	mk := func(rank int) *trace.Worker {
		return worker(rank, 2,
			kernel(1, 10*time.Millisecond),
			trace.Op{Kind: trace.KindEventRecord, Stream: 1, Event: 7, EventVer: 1},
			trace.Op{Kind: trace.KindStreamWait, Stream: 2, Event: 7, EventVer: 1},
			after(2*time.Millisecond, coll(2, 0x42, 0, 2, rank, 20*time.Millisecond)),
			kernel(1, 5*time.Millisecond),
			trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd},
			trace.Op{Kind: trace.KindDeviceSync},
		)
	}
	return job(t, mk(0), mk(1))
}

func TestTimelineChromeTraceGolden(t *testing.T) {
	tl, j := NewTimeline(), timelineFixture(t)
	if _, err := Run(context.Background(), j, timing(j, Options{Observer: tl})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden (run with -update if intended):\n%s", buf.String())
	}
}

func TestTimelineChromeTraceShape(t *testing.T) {
	// Independent of the golden bytes, the export must be valid
	// trace-event JSON with the right structure: a traceEvents array
	// of complete/instant/metadata events carrying pid/tid/ts.
	tl, j := NewTimeline(), timelineFixture(t)
	if _, err := Run(context.Background(), j, timing(j, Options{Observer: tl})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		counts[ev.Ph]++
		names[ev.Name]++
		if ev.Ph == "X" && ev.Name != "host" && ev.Dur < 0 {
			t.Errorf("negative duration on %q", ev.Name)
		}
	}
	// 2 workers × (2 kernels + 1 collective + 1 host stretch) complete
	// events, plus any nonzero stalls; 2 marks; metadata for 2
	// processes and their threads.
	if counts["X"] < 8 {
		t.Errorf("complete events = %d, want >= 8", counts["X"])
	}
	if counts["i"] != 2 {
		t.Errorf("instant (mark) events = %d, want 2", counts["i"])
	}
	if counts["M"] == 0 {
		t.Error("no metadata events")
	}
	for _, want := range []string{"k", "ncclAllReduce", "host", "process_name", "thread_name", trace.MarkIterEnd} {
		if names[want] == 0 {
			t.Errorf("export missing %q events", want)
		}
	}
	// The collective carries its matching key in args.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "ncclAllReduce" {
			if ev.Args["comm"] != "0x42" {
				t.Errorf("collective args = %v, want comm 0x42", ev.Args)
			}
			break
		}
	}
}
