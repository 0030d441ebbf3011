package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maya"
)

// TestDrainUnderLoadWithBreakerOpen is the graceful-shutdown
// acceptance test: with the predictor breaker open and a storm of
// clients being answered from the stale cache, Drain + Shutdown must
// complete cleanly — every in-flight degraded response finishes,
// nothing wedges, and requests after the flip get the draining 503.
func TestDrainUnderLoadWithBreakerOpen(t *testing.T) {
	cfg := Config{Cluster: maya.DGXV100(1), Profile: maya.ProfileLLM, Workers: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A real net listener + http.Server, because httptest's Close does
	// not exercise the Shutdown drain semantics under test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	// Populate the stale cache with one healthy prediction, then trip
	// the predictor breaker (frozen clock: no probe reopens it).
	resp, raw := postJSON(t, url+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup predict: %d (%s)", resp.StatusCode, raw)
	}
	clk := newBreakerClock()
	s.pbreaker.now = clk.now
	for i := 0; i < s.cfg.BreakerThreshold; i++ {
		if !s.pbreaker.Allow() {
			t.Fatalf("breaker rejected before the threshold (i=%d)", i)
		}
		s.pbreaker.Observe(breakerFailure)
	}
	if got := s.pbreaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}

	// The storm: concurrent clients looping degraded requests. Each
	// exits on the first draining 503 (or records anything unexpected)
	// — so every response, including those in flight when Drain flips,
	// ran to completion.
	specBody, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var (
		wg         sync.WaitGroup
		degraded   atomic.Int64
		drained    atomic.Int64
		unexpected atomic.Int64
		firstOdd   atomic.Value
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(specBody))
				if err != nil {
					unexpected.Add(1)
					firstOdd.CompareAndSwap(nil, fmt.Sprintf("transport error: %v", err))
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var res PredictResult
				json.Unmarshal(raw, &res)
				switch {
				case resp.StatusCode == http.StatusOK && res.Degraded && res.Report != nil:
					degraded.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable && s.draining.Load():
					drained.Add(1)
					return
				default:
					unexpected.Add(1)
					firstOdd.CompareAndSwap(nil, fmt.Sprintf("status %d body %s", resp.StatusCode, raw))
					return
				}
			}
		}()
	}

	// Let the storm serve degraded traffic before pulling the plug.
	deadline := time.Now().Add(10 * time.Second)
	for degraded.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("storm served only %d degraded responses", degraded.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// SIGTERM path: Drain (stop admitting, snapshot state) with the
	// storm still running. Every client winds down through a complete
	// response — degraded 200s in flight finish, then the 503.
	s.Drain()
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d unexpected responses during the storm; first: %v", n, firstOdd.Load())
	}
	if got := drained.Load(); got != clients {
		t.Errorf("clients ended on a draining 503 = %d, want %d", got, clients)
	}
	if degraded.Load() < clients {
		t.Errorf("degraded responses = %d, want >= %d", degraded.Load(), clients)
	}

	// Shutdown returns nil: no wedged handlers, clean exit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	if d := s.adm.Depth(); d != 0 {
		t.Errorf("admission depth = %d after drain, want 0", d)
	}
}
