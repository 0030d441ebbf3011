package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"maya"
	"maya/internal/pool"
)

// TestPredictPanicRecovery injects a panicking predictor through the
// test gate: the request answers 500 instead of killing the process,
// maya_panics_total counts it, and — because the recovery happens
// inside the coalescing leader's closure — the flight completes, so
// a retry of the same spec starts fresh and succeeds.
func TestPredictPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var calls atomic.Int64
	s.testGate = func() {
		if calls.Add(1) == 1 {
			panic("boom")
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "panicked") {
		t.Fatalf("body does not report the panic: %s", raw)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}

	// The server is alive and the panicked flight is not wedged: the
	// identical spec succeeds on retry.
	resp, raw = postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mbody), "maya_panics_total 1") {
		t.Fatalf("/metrics missing maya_panics_total 1:\n%s", mbody)
	}
}

// TestBatchPanicIsolated panics every prediction of a batch: batch
// items execute on their own goroutines, where an unrecovered panic
// is fatal to the whole process, so both must come back as per-item
// 500 results with the server still standing.
func TestBatchPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.testGate = func() { panic("boom") }

	a, b := smallSpec(), smallSpec()
	b.MicroBatches = 4 // distinct key: its own coalescing flight and goroutine
	resp, raw := postJSON(t, ts.URL+"/v1/predict", batchEnvelope{Requests: []PredictSpec{a, b}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	for i, res := range br.Results {
		if res.Report != nil || !strings.Contains(res.Error, "panicked") {
			t.Errorf("item %d not isolated: %+v", i, res)
		}
	}
	if got := s.metrics.Panics.Load(); got != 2 {
		t.Errorf("Panics = %d, want 2", got)
	}

	s.testGate = nil
	resp, raw = postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
}

// rankPanicBackend answers every prediction the way the predictor does
// when a workload's rank panics inside the emulation fan-out: an error
// wrapping the *pool.PanicError recovered there.
type rankPanicBackend struct{ backend }

func (rankPanicBackend) Predict(context.Context, maya.Workload, ...maya.PredictOption) (*maya.Report, error) {
	return nil, fmt.Errorf("core: emulating rank 1: %w", &pool.PanicError{Value: "boom"})
}

// TestRecoveredRankPanicCounts: a panic the predictor already turned
// into an error is a panic all the same — 500, and one more on
// maya_panics_total, exactly like one recovered on the pool worker.
func TestRecoveredRankPanicCounts(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.backend = rankPanicBackend{s.backend}

	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "panic: boom") {
		t.Fatalf("body does not report the panic: %s", raw)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}
