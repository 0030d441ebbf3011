package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"maya"
)

// smallSpec is the fast test recipe: 8 ranks, 2 unique after dedup,
// oracle annotation so no estimator training is needed.
func smallSpec() PredictSpec {
	return PredictSpec{
		Model: "gpt3-1.3b", GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
		Annotation: annOracle,
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Cluster: maya.DGXV100(1), Profile: maya.ProfileLLM, Workers: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, v any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestPredictEndpoint(t *testing.T) {
	s, ts := newTestServer(t, nil)

	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, raw)
	}
	var res PredictResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if res.Report == nil || res.Report.IterTime <= 0 {
		t.Fatalf("implausible report: %s", raw)
	}
	if res.Report.TotalWorkers != 8 || res.Report.UniqueWorkers != 2 {
		t.Errorf("report workers = %d/%d, want 2/8", res.Report.UniqueWorkers, res.Report.TotalWorkers)
	}
	if res.Report.MFU <= 0 {
		t.Errorf("MFU not derived from the model preset: %+v", res.Report)
	}
	if res.Coalesced {
		t.Error("lone request marked coalesced")
	}

	// The HTTP answer matches the library called directly.
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	w, opts, err := spec.build(pred.Cluster())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pred.Predict(t.Context(), w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IterTime != direct.IterTime || res.Report.PeakMemBytes != direct.PeakMemBytes {
		t.Errorf("served report diverges from direct prediction:\nserved %+v\ndirect %+v", res.Report, direct)
	}
	if got := s.metrics.OK.Load(); got != 1 {
		t.Errorf("OK counter = %d, want 1", got)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)

	good := smallSpec()
	bad := smallSpec()
	bad.Model = "no-such-model"
	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		batchEnvelope{Requests: []PredictSpec{good, bad, good}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, raw)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	if br.Results[0].Report == nil || br.Results[2].Report == nil {
		t.Errorf("good specs failed: %s", raw)
	}
	if br.Results[1].Error == "" || br.Results[1].Report != nil {
		t.Errorf("bad spec did not fail in isolation: %+v", br.Results[1])
	}
}

func TestPredictValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []PredictSpec{
		{},                   // no model
		{Model: "gpt3-1.3b"}, // no batch
		{Model: "gpt3-1.3b", GlobalBatch: 16, Annotation: "psychic"},
		{Model: "gpt3-1.3b", GlobalBatch: 16, DType: "fp64"},
		{Model: "gpt3-1.3b", GlobalBatch: 16, Cluster: "64xH100"}, // wrong cluster
	}
	for i, spec := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", spec, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400 (body %s)", i, resp.StatusCode, raw)
		}
	}
}

// TestPredictCoalescing is the acceptance test of the ISSUE: N
// concurrent identical predictions must perform exactly one capture
// and one simulate. The leader is held on its pool slot until every
// follower has provably joined the flight, so the assertion is
// deterministic, not racy.
func TestPredictCoalescing(t *testing.T) {
	const followers = 7
	s, ts := newTestServer(t, nil)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testGate = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	type answer struct {
		status int
		res    PredictResult
	}
	answers := make(chan answer, followers+1)
	post := func() {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
		var res PredictResult
		json.Unmarshal(raw, &res)
		answers <- answer{resp.StatusCode, res}
	}

	// Leader in flight, held at the gate...
	go post()
	<-entered
	// ...then the identical followers, waited into the flight.
	for i := 0; i < followers; i++ {
		go post()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.co.Joins() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight", s.co.Joins(), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var iter time.Duration
	for i := 0; i < followers+1; i++ {
		a := <-answers
		if a.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, a.status)
		}
		if a.res.Report == nil {
			t.Fatalf("request %d: no report", i)
		}
		if iter == 0 {
			iter = a.res.Report.IterTime
		} else if a.res.Report.IterTime != iter {
			t.Errorf("coalesced answers disagree: %v vs %v", a.res.Report.IterTime, iter)
		}
	}

	// Exactly one execution — one capture, one simulate — served all
	// eight requests.
	if got := s.metrics.Executed.Load(); got != 1 {
		t.Errorf("predictions executed = %d, want exactly 1", got)
	}
	if got := s.metrics.Coalesced.Load(); got != followers {
		t.Errorf("coalesced followers = %d, want %d", got, followers)
	}
	cs := s.Predictor().CaptureCache().Stats()
	if cs.Misses != 1 {
		t.Errorf("capture cache misses = %d, want exactly 1 capture", cs.Misses)
	}
	if cs.Hits != 0 {
		t.Errorf("capture cache hits = %d, want 0 (followers never reached the cache)", cs.Hits)
	}
	if got := s.metrics.Predictions.Load(); got != followers+1 {
		t.Errorf("predictions served = %d, want %d", got, followers+1)
	}

	// A later identical request reuses the capture (cache hit) but
	// simulates afresh: single-flight, not a result cache.
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: %d (%s)", resp.StatusCode, raw)
	}
	if got := s.Predictor().CaptureCache().Stats().Hits; got != 1 {
		t.Errorf("follow-up capture cache hits = %d, want 1", got)
	}
	if got := s.metrics.Executed.Load(); got != 2 {
		t.Errorf("executed after follow-up = %d, want 2", got)
	}
}

func TestTenantThrottling(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.TenantRate = 0.001 // effectively: the burst and nothing more
		c.TenantBurst = 2
	})

	hdrA := map[string]string{"X-Maya-Tenant": "alice"}
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), hdrA)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: %d (%s)", i, resp.StatusCode, raw)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/predict", smallSpec(), hdrA)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A different tenant is unaffected — that is the fairness claim.
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(),
		map[string]string{"X-Maya-Tenant": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d (%s)", resp.StatusCode, raw)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Queue = 1
	})
	release := make(chan struct{})
	s.testGate = func() { <-release }

	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
		done <- resp.StatusCode
	}()
	// Wait until the first request holds the only admission slot.
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status with full queue = %d, want 503 (%s)", resp.StatusCode, raw)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
}

func TestCaptureAndTraceRoundtrip(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Capture: run and archive.
	resp, raw := postJSON(t, ts.URL+"/v1/capture", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture status = %d (%s)", resp.StatusCode, raw)
	}
	var meta TraceMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint == "" || meta.SizeBytes <= 0 || meta.UniqueWorkers != 2 {
		t.Fatalf("implausible capture meta: %+v", meta)
	}

	// Download: the bytes parse as a Trace with matching identity.
	get, err := http.Get(ts.URL + "/v1/traces/" + meta.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(get.Body)
	get.Body.Close()
	if err != nil || get.StatusCode != http.StatusOK {
		t.Fatalf("trace get: status %d, err %v", get.StatusCode, err)
	}
	tr, err := maya.ReadTrace(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("served trace does not parse: %v", err)
	}
	if tr.Workload() != meta.Workload || tr.TotalWorkers() != meta.TotalWorkers {
		t.Errorf("served trace identity mismatch: %v vs %+v", tr, meta)
	}

	// Unknown fingerprint is a 404.
	get404, err := http.Get(ts.URL + "/v1/traces/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	get404.Body.Close()
	if get404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, want 404", get404.StatusCode)
	}
	if m := s.metrics; m.Failed.Load() != 0 || m.BadInput.Load() != 1 {
		t.Errorf("a client's 404 counted as failed=%d bad_input=%d, want 0 and 1", m.Failed.Load(), m.BadInput.Load())
	}

	// Upload: the same blob re-imports under a content fingerprint.
	up, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	upRaw, _ := io.ReadAll(up.Body)
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("trace upload: status %d (%s)", up.StatusCode, upRaw)
	}
	var upMeta TraceMeta
	if err := json.Unmarshal(upRaw, &upMeta); err != nil {
		t.Fatal(err)
	}
	if upMeta.Workload != meta.Workload {
		t.Errorf("upload meta mismatch: %+v vs %+v", upMeta, meta)
	}

	// Garbage and truncated uploads are 400s, not 500s, and so are
	// checksummed envelopes whose payload the reader must refuse rather
	// than recover from a panic: a JSON collective carrying no metadata,
	// and a binary payload one byte short.
	envelope := func(version uint16, payload []byte) []byte {
		sum := fnv.New64a()
		sum.Write(payload)
		b := binary.BigEndian.AppendUint16([]byte("MAYATR"), version)
		b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
		return binary.BigEndian.AppendUint64(append(b, payload...), sum.Sum64())
	}
	payload := []byte(`{"job":{"workers":[{"rank":0,"world":2,"ops":[{"seq":0,"kind":"collective"}]}]}}`)
	for name, body := range map[string][]byte{
		"garbage":                  []byte("not a maya trace"),
		"truncated":                blob[:len(blob)/2],
		"collective without coll":  envelope(1, payload),
		"binary payload cut short": envelope(2, blob[16:len(blob)-9]),
	} {
		up, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		up.Body.Close()
		if up.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload: status %d, want 400", name, up.StatusCode)
		}
	}
	if got := s.metrics.TraceUploads.Load(); got != 1 {
		t.Errorf("trace uploads = %d, want 1 (rejects must not count)", got)
	}
	if got := s.metrics.Panics.Load(); got != 0 {
		t.Errorf("maya_panics_total = %d after hostile uploads, want 0", got)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if _, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil); len(raw) == 0 {
		t.Fatal("no predict response")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, metric := range []string{
		"maya_serve_requests_ok_total 1",
		"maya_serve_predictions_executed_total 1",
		"maya_capture_cache_misses_total 1",
		"maya_serve_latency_seconds_count 1",
		"maya_serve_pool_workers 4",
		"maya_build_info",
		// Resilience series: breaker state per dependency, shed and
		// degraded counters, the queue-wait-at-rejection histogram and
		// the trace-store eviction counter.
		`maya_serve_breaker_state{dep="predict"} 0`,
		`maya_serve_breaker_state{dep="capture"} 0`,
		`maya_serve_breaker_trips_total{dep="predict"} 0`,
		`maya_serve_breaker_recoveries_total{dep="predict"} 0`,
		"maya_serve_shed_total 0",
		"maya_serve_degraded_total 0",
		"maya_serve_shedding 0",
		"maya_serve_queue_wait_at_reject_seconds_count 0",
		"maya_serve_trace_store_evictions_total 0",
		"maya_serve_degrade_cache_entries 1",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %q\n%s", metric, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d (%s)", hresp.StatusCode, hraw)
	}
	var hb healthzBody
	if err := json.Unmarshal(hraw, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || hb.Cluster != "8xV100" || hb.Workers != 4 {
		t.Errorf("healthz body: %+v", hb)
	}
	if hb.Build.GoVersion == "" {
		t.Errorf("healthz missing build info: %+v", hb.Build)
	}
	if hb.CaptureCache.Misses != 1 {
		t.Errorf("healthz capture cache misses = %d, want 1", hb.CaptureCache.Misses)
	}
	if hb.Shedding {
		t.Error("healthz reports shedding on an idle server")
	}
	if hb.Breakers["predict"] != "closed" || hb.Breakers["capture"] != "closed" {
		t.Errorf("healthz breakers = %v, want both closed", hb.Breakers)
	}
	if hb.DegradeEntries != 1 {
		t.Errorf("healthz degrade entries = %d, want 1 (the predict above)", hb.DegradeEntries)
	}

	// Drain: /healthz flips to 503/"draining", predicts are refused.
	s.Drain()
	dresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503 (%s)", dresp.StatusCode, draw)
	}
	presp, praw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining predict status = %d, want 503 (%s)", presp.StatusCode, praw)
	}
}

func TestRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.DefaultDeadline = 50 * time.Millisecond
	})
	// Hold the only gate long past the deadline: the prediction's ctx
	// expires and the request answers 504.
	s.testGate = func() { time.Sleep(200 * time.Millisecond) }
	spec := smallSpec()
	resp, raw := postJSON(t, ts.URL+"/v1/predict", spec, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, raw)
	}
	if got := s.metrics.Deadline.Load(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

func TestWarmPreload(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Preload = []string{"8xA40/vision"}
	})
	if err := s.Warm(t.Context()); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	stats := s.Predictor().EstimatorCache().Stats()
	if stats.Trained != 2 {
		t.Fatalf("suites trained = %d, want 2 (own cluster + preload)", stats.Trained)
	}
	// Learned predictions now hit the warmed suite: no extra training.
	w, opts, err := (&PredictSpec{Model: "gpt3-1.3b", GlobalBatch: 16, TP: 2, PP: 2,
		MicroBatches: 2, Annotation: annLearned}).build(s.cfg.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predictor().Predict(t.Context(), w, opts...); err != nil {
		t.Fatal(err)
	}
	after := s.Predictor().EstimatorCache().Stats()
	if after.Trained != 2 {
		t.Errorf("learned predict retrained: %d suites", after.Trained)
	}
	if after.Hits == stats.Hits {
		t.Errorf("learned predict did not hit the warmed cache: %+v", after)
	}

	bad, _ := New(Config{Cluster: maya.DGXV100(1), Preload: []string{"9000xQPU"}})
	if err := bad.Warm(t.Context()); err == nil {
		t.Error("Warm accepted an unparseable preload entry")
	}
}

func TestTopologyAndCongestionSurfaced(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Topology = "oversub:2"
		c.Congestion = true
	})
	if got := s.Predictor().Topology(); got != "oversub:2" {
		t.Fatalf("predictor topology = %q, want oversub:2", got)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var hb healthzBody
	if err := json.Unmarshal(hraw, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Topology != "oversub:2" || !hb.Congestion {
		t.Errorf("healthz topology/congestion = %q/%v, want oversub:2/true", hb.Topology, hb.Congestion)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mraw)
	for _, metric := range []string{
		`maya_serve_topology_info{topology="oversub:2"} 1`,
		"maya_serve_congestion_enabled 1",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %q\n%s", metric, text)
		}
	}

	// Defaults: the auto fabric, congestion off.
	dflt, dts := newTestServer(t, nil)
	if got := dflt.Predictor().Topology(); got != "auto" {
		t.Errorf("default topology = %q, want auto", got)
	}
	dresp, err := http.Get(dts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	dtext := string(draw)
	for _, metric := range []string{
		`maya_serve_topology_info{topology="auto"} 1`,
		"maya_serve_congestion_enabled 0",
	} {
		if !strings.Contains(dtext, metric) {
			t.Errorf("default /metrics missing %q", metric)
		}
	}

	// An unparseable fabric spec fails at construction, not first use.
	if _, err := New(Config{Cluster: maya.DGXV100(1), Topology: "mesh:banana"}); err == nil {
		t.Error("New accepted an invalid topology spec")
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedBodiesAre413 sends each endpoint one byte past its body
// limit, streamed with no declared length so only reading finds the
// excess: the answer is a 413 naming the limit, not a 400 about
// whatever a body cut at the limit failed to parse as.
func TestOversizedBodiesAre413(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, c := range []struct {
		path  string
		limit int64
	}{
		{"/v1/predict", maxSpecBody},
		{"/v1/traces", maxTraceBody},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+c.path, io.LimitReader(zeros{}, c.limit+1))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", c.path, resp.StatusCode, raw)
		}
		if want := fmt.Sprintf("%d MiB", c.limit>>20); !strings.Contains(string(raw), want) {
			t.Errorf("%s: answer %q does not name the %s limit", c.path, raw, want)
		}
	}
	if m := s.metrics; m.BadInput.Load() != 2 || m.Failed.Load() != 0 {
		t.Errorf("413s counted as bad_input=%d failed=%d, want 2 and 0", m.BadInput.Load(), m.Failed.Load())
	}
}
