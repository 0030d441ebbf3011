package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"maya"
	"maya/internal/models"
	"maya/internal/prand"
	"maya/internal/serve"
)

// serveSpec is the wire form of a prediction request, as a client of
// maya-serve writes it.
type serveSpec struct {
	Model        string  `json:"model"`
	GlobalBatch  int     `json:"global_batch"`
	TP           int     `json:"tp"`
	PP           int     `json:"pp"`
	MicroBatches int     `json:"micro_batches"`
	SeqParallel  bool    `json:"seq_parallel,omitempty"`
	ActRecompute bool    `json:"act_recompute,omitempty"`
	FLOPs        float64 `json:"flops,omitempty"`
}

// servePredictResult is the part of a prediction answer a client reads.
type servePredictResult struct {
	Report      *maya.Report `json:"report"`
	Error       string       `json:"error"`
	Degraded    bool         `json:"degraded"`
	QueueWaitMS float64      `json:"queue_wait_ms"`
}

// serveRequest is one op of the request list.
type serveRequest struct {
	kind    string // "predict", "batch" or "trace"
	recipes []int  // pool indices: one, or four for a batch
	flops   []float64
	body    []byte // the marshalled request
}

// serveMixed drives an in-process maya-serve over loopback HTTP with
// two closed-loop clients (callers of this service wait for replies).
// The capture cache is smaller than the recipe working set and recipe
// popularity is skewed, so most requests take the hit path (HTTP,
// admission, pool, plan fill, a small simulate) and a fifth to a third
// take the miss path (a capture under contention). Every request
// carries its own FLOPs value, which defeats coalescing and the
// degrade cache without changing the work. The seed draws which asks
// go to cold recipes and in what order, every request's kind and its
// FLOPs.
type serveMixed struct {
	cfg     config
	cluster maya.Cluster
	pool    []serveSpec
	wls     []maya.Workload
	reqs    []serveRequest

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	// Since beginTimed.
	mu         sync.Mutex
	lat        map[string][]time.Duration
	queueWaits []float64
	cacheBase  maya.CaptureCacheStats
	promBase   map[string]float64
}

// The capture cache holds 12 of the pool's 32 recipes: the 6 hot ones
// and the 6 most recent of the cold scan, which takes 22% of the asks.
// About three asks in four hit.
const (
	serveCacheSize = 12
	serveHotSet    = 6
	serveColdShare = 0.22
)

func newServeMixed(cfg config) (*serveMixed, error) {
	w := &serveMixed{cfg: cfg, cluster: maya.DGXV100(1)}
	// The recipe pool: GPT-3 1.3B and 2.7B on one DGX-V100 node, every
	// parallelism shape that fits, with and without sequence
	// parallelism, plus a few four-microbatch variants.
	add := func(model string, batch, tp, pp, mb int, sp bool) {
		w.pool = append(w.pool, serveSpec{Model: model, GlobalBatch: batch, TP: tp, PP: pp,
			MicroBatches: mb, SeqParallel: sp, ActRecompute: true})
	}
	shapes := [][2]int{{2, 1}, {2, 2}, {2, 4}, {4, 1}, {4, 2}, {8, 1}, {1, 2}, {1, 4}}
	for _, m := range []struct {
		name  string
		batch int
	}{{"gpt3-1.3b", 32}, {"gpt3-2.7b", 64}} {
		for _, s := range shapes {
			add(m.name, m.batch, s[0], s[1], 8, false)
			if s[0] > 1 && s[1] < 4 {
				add(m.name, m.batch, s[0], s[1], 8, true)
			}
		}
		add(m.name, m.batch, 2, 2, 4, false)
		add(m.name, m.batch, 4, 2, 4, false)
		add(m.name, m.batch, 2, 4, 4, false)
	}
	nReqs := 400
	if cfg.tiny {
		w.pool, nReqs = w.pool[:6], 30
	}
	for _, s := range w.pool {
		mdl, err := models.ByName(s.Model)
		if err != nil {
			return nil, err
		}
		wl, err := maya.NewMegatron(maya.MegatronConfig{
			Model: mdl, NGPUs: w.cluster.TotalGPUs(), GlobalBatch: s.GlobalBatch,
			TP: s.TP, PP: s.PP, MicroBatches: s.MicroBatches, VirtualStages: 1,
			SeqParallel: s.SeqParallel, ActRecompute: s.ActRecompute,
		})
		if err != nil {
			return nil, fmt.Errorf("recipe %+v: %w", s, err)
		}
		w.wls = append(w.wls, wl)
	}

	// Kinds: 5% four-spec batches, 1% capture → download → upload round
	// trips (writes beside reads), the rest single predictions.
	rng := prand.New(prand.HashInts(cfg.seed, 0x5e47e))
	kinds := make([]string, nReqs)
	for i := range kinds {
		kinds[i] = "predict"
	}
	perm := rng.Perm(nReqs)
	nBatch, nTrace := nReqs/20, max(nReqs/100, 1)
	for _, i := range perm[:nBatch] {
		kinds[i] = "batch"
	}
	for _, i := range perm[nBatch : nBatch+nTrace] {
		kinds[i] = "trace"
	}
	// Popularity: a hot set that fits the capture cache and a scan over
	// the rest of the pool that does not. A fixed share of the asks goes
	// round-robin through the cold recipes, so each has left the cache
	// before it is asked for again; the other asks spread evenly over
	// the hot recipes. The seed draws which asks are cold, the order of
	// the scan and the order of the hot asks. (Asks drawn independently
	// from a Zipf law moved the miss share, and with it every timing, by
	// a fifth from seed to seed.)
	// Cold asks take the same share of the batch specs as of the single
	// requests, so the number of single requests that miss is fixed too.
	slots := nReqs + 3*nBatch
	isCold := make([]bool, slots)
	var single, batched []int
	for _, kind := range kinds {
		if kind == "batch" {
			for j := 0; j < 4; j++ {
				batched = append(batched, len(single)+len(batched))
			}
		} else {
			single = append(single, len(single)+len(batched))
		}
	}
	nCold := 0
	for _, group := range [][]int{single, batched} {
		k := int(math.Round(serveColdShare * float64(len(group))))
		for _, j := range rng.Perm(len(group))[:k] {
			isCold[group[j]] = true
		}
		nCold += k
	}
	ranked := func(k int) int { half := len(w.pool) / 2; return (k%2)*half + k/2 } // alternate the two models
	nHot := min(serveHotSet, len(w.pool)/2)
	scan := rng.Perm(len(w.pool) - nHot)
	hotAsks := rng.Perm(slots - nCold)
	var slot, colds, hots int
	draw := func() int {
		defer func() { slot++ }()
		if isCold[slot] {
			colds++
			return ranked(nHot + scan[(colds-1)%len(scan)])
		}
		hots++
		return ranked(hotAsks[hots-1] % nHot)
	}
	for i, kind := range kinds {
		r := serveRequest{kind: kind}
		n := 1
		if kind == "batch" {
			n = 4
		}
		var specs []serveSpec
		for j := 0; j < n; j++ {
			pi := draw()
			s := w.pool[pi]
			mdl, _ := models.ByName(s.Model)
			// A distinct FLOPs value per request: part of the prediction
			// identity (no coalescing, no degrade-cache reuse), not of the
			// capture identity.
			s.FLOPs = mdl.TrainFLOPsPerIter(s.GlobalBatch) * (1 + 1e-6*float64(4*i+j+1) + 0.01*rng.Float64())
			if kind == "trace" {
				s.FLOPs = 0
			}
			r.recipes = append(r.recipes, pi)
			r.flops = append(r.flops, s.FLOPs)
			specs = append(specs, s)
		}
		var err error
		if kind == "batch" {
			r.body, err = json.Marshal(map[string]any{"requests": specs})
		} else {
			r.body, err = json.Marshal(specs[0])
		}
		if err != nil {
			return nil, err
		}
		w.reqs = append(w.reqs, r)
	}
	return w, nil
}

func (w *serveMixed) build(ctx context.Context) (time.Duration, error) {
	cacheSize := serveCacheSize
	if w.cfg.tiny {
		cacheSize = len(w.pool)/2 + 1 // the tiny pool's hot half and one cold recipe
	}
	srv, err := serve.New(serve.Config{
		Cluster: w.cluster, Profile: maya.ProfileLLM, CaptureCacheSize: cacheSize,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := srv.Warm(ctx); err != nil {
		return 0, err
	}
	train := time.Since(t0)
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.callers()}}
	return train, nil
}

func (w *serveMixed) close() {
	if w.ts != nil {
		w.srv.Drain()
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.ts = nil
	}
}

func (w *serveMixed) warmCycles() int { return 1 }
func (w *serveMixed) numOps() int     { return len(w.reqs) }
func (w *serveMixed) callers() int    { return 2 }

func (w *serveMixed) beginTimed() {
	w.lat = map[string][]time.Duration{}
	w.queueWaits = nil
	w.cacheBase = w.srv.Predictor().CaptureCache().Stats()
	w.promBase, _ = w.scrape()
}

// call issues one HTTP request and returns the body of a 200 answer.
func (w *serveMixed) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// answer validates one prediction result and fingerprints its report.
func (r *servePredictResult) answer() (uint64, error) {
	switch {
	case r.Error != "":
		return 0, fmt.Errorf("prediction error: %s", r.Error)
	case r.Degraded:
		return 0, fmt.Errorf("degraded (stale) answer")
	case r.Report == nil:
		return 0, fmt.Errorf("answer without a report")
	}
	return hashReport(r.Report), nil
}

// traceHash fingerprints what a capture answer says about the trace.
func traceHash(workload string, total, unique int, peak int64, oom bool) uint64 {
	return prand.HashInts(prand.Hash64(workload), int64(total), int64(unique), peak, bit(oom))
}

func (w *serveMixed) do(ctx context.Context, i int, tr *tracer, parent, opID int) (opOutcome, error) {
	r := &w.reqs[i]
	t0 := time.Now()
	var out opOutcome
	tally := "" // the latency tally the op goes to; its class unless set
	queueWait := -1.0
	switch r.kind {
	case "predict":
		id := tr.start("http.predict", parent, opID)
		data, err := w.call(ctx, http.MethodPost, "/v1/predict", r.body)
		tr.end(id)
		if err != nil {
			return out, err
		}
		var res servePredictResult
		if err := json.Unmarshal(data, &res); err != nil {
			return out, err
		}
		h, err := res.answer()
		if err != nil {
			return out, err
		}
		// Predict stamps the capture's cost into the report only when
		// this request paid it: a capture-cache miss.
		out = opOutcome{hash: h, class: "hit", stages: res.Report.Stages}
		if res.Report.Stages.Emulate > 0 {
			out.class = "miss"
		}
		queueWait = res.QueueWaitMS
	case "batch":
		id := tr.start("http.batch", parent, opID)
		data, err := w.call(ctx, http.MethodPost, "/v1/predict", r.body)
		tr.end(id)
		if err != nil {
			return out, err
		}
		var res struct {
			Results []servePredictResult `json:"results"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return out, err
		}
		if len(res.Results) != len(r.recipes) {
			return out, fmt.Errorf("batch of %d answered with %d results", len(r.recipes), len(res.Results))
		}
		// A batch that paid a capture is a miss-path op, like a single
		// prediction that did; its own latency is tallied as "batch".
		hs := make([]uint64, len(res.Results))
		out.class = "hit"
		for j := range res.Results {
			h, err := res.Results[j].answer()
			if err != nil {
				return out, fmt.Errorf("batch item %d: %w", j, err)
			}
			hs[j] = h
			addStages(&out.stages, res.Results[j].Report.Stages)
			if res.Results[j].Report.Stages.Emulate > 0 {
				out.class = "miss"
			}
		}
		out.hash, tally = hashAll(hs), "batch"
	case "trace":
		var meta, up serve.TraceMeta
		id := tr.start("http.capture", parent, opID)
		data, err := w.call(ctx, http.MethodPost, "/v1/capture", r.body)
		tr.end(id)
		if err != nil {
			return out, err
		}
		if err := json.Unmarshal(data, &meta); err != nil {
			return out, err
		}
		id = tr.start("http.trace_get", parent, opID)
		raw, err := w.call(ctx, http.MethodGet, "/v1/traces/"+meta.Fingerprint, nil)
		tr.end(id)
		if err != nil {
			return out, err
		}
		got, err := maya.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return out, fmt.Errorf("downloaded trace: %w", err)
		}
		id = tr.start("http.trace_upload", parent, opID)
		data, err = w.call(ctx, http.MethodPost, "/v1/traces", raw)
		tr.end(id)
		if err != nil {
			return out, err
		}
		if err := json.Unmarshal(data, &up); err != nil {
			return out, err
		}
		h := traceHash(meta.Workload, meta.TotalWorkers, meta.UniqueWorkers, meta.PeakMemBytes, meta.OOM)
		if h != traceHash(got.Workload(), got.TotalWorkers(), got.UniqueWorkers(), got.PeakMemBytes(), got.OOM()) ||
			h != traceHash(up.Workload, up.TotalWorkers, up.UniqueWorkers, up.PeakMemBytes, up.OOM) {
			return out, fmt.Errorf("trace round trip: capture, download and upload disagree about %s", meta.Fingerprint)
		}
		out = opOutcome{hash: h, class: "trace"}
	}
	if w.lat != nil {
		d := time.Since(t0)
		if tally == "" {
			tally = out.class
		}
		w.mu.Lock()
		w.lat[tally] = append(w.lat[tally], d)
		if queueWait >= 0 {
			w.queueWaits = append(w.queueWaits, queueWait)
		}
		w.mu.Unlock()
	}
	return out, nil
}

func (w *serveMixed) check(ctx context.Context) ([]uint64, float64, error) {
	// The reference is a plain predictor beside the service: the HTTP
	// report must equal a direct Predict of the same spec. Its capture
	// cache holds the whole pool, so the pass costs one capture per
	// recipe, not one per request.
	pred, err := maya.NewPredictor(w.cluster, maya.ProfileLLM,
		maya.WithCaptureCache(maya.NewCaptureCache(2*len(w.pool))))
	if err != nil {
		return nil, 0, err
	}
	direct := func(pi int, flops float64) (*maya.Report, error) {
		return pred.Predict(ctx, w.wls[pi], maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
	}
	refs := make([]uint64, len(w.reqs))
	for i := range w.reqs {
		r := &w.reqs[i]
		switch r.kind {
		case "trace":
			tr, err := pred.Capture(ctx, w.wls[r.recipes[0]])
			if err != nil {
				return nil, 0, err
			}
			refs[i] = traceHash(tr.Workload(), tr.TotalWorkers(), tr.UniqueWorkers(), tr.PeakMemBytes(), tr.OOM())
		case "predict":
			rep, err := direct(r.recipes[0], r.flops[0])
			if err != nil {
				return nil, 0, err
			}
			refs[i] = hashReport(rep)
		case "batch":
			hs := make([]uint64, len(r.recipes))
			for j, pi := range r.recipes {
				rep, err := direct(pi, r.flops[j])
				if err != nil {
					return nil, 0, err
				}
				hs[j] = hashReport(rep)
			}
			refs[i] = hashAll(hs)
		}
	}
	var errSum float64
	for pi, wl := range w.wls {
		mdl, _ := models.ByName(w.pool[pi].Model)
		rep, err := direct(pi, mdl.TrainFLOPsPerIter(w.pool[pi].GlobalBatch))
		if err != nil {
			return nil, 0, err
		}
		if rep.OOM {
			return nil, 0, fmt.Errorf("pool recipe %+v does not fit the cluster", w.pool[pi])
		}
		actual, err := pred.MeasureActual(ctx, wl)
		if err != nil {
			return nil, 0, err
		}
		errSum += errPct(rep.IterTime, actual.IterTime)
	}
	predErr := errSum / float64(len(w.wls))
	if predErr > predErrCeilingPct {
		return nil, 0, fmt.Errorf("mean prediction error %.2f%% is above the %d%% ceiling", predErr, predErrCeilingPct)
	}
	return refs, predErr, nil
}

// scrape reads the unlabelled series of /metrics.
func (w *serveMixed) scrape() (map[string]float64, error) {
	data, err := w.call(context.Background(), http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (w *serveMixed) layers(ctx context.Context, m metrics, tr *tracer) error {
	p50 := func(class string) float64 { return quantileMS(w.lat[class], 0.5) }
	m.set("serve.hit_p50_ms", p50("hit"))
	m.set("serve.miss_p50_ms", p50("miss"))
	m.set("serve.batch_p50_ms", p50("batch"))
	m.set("serve.trace_roundtrip_ms", p50("trace"))
	m.set("serve.queue_wait_p50_ms", median(w.queueWaits))

	prom, err := w.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return prom[name] - w.promBase[name] }
	if preds := delta("maya_serve_predictions_total"); preds > 0 {
		m.set("serve.coalesced_frac", delta("maya_serve_predictions_coalesced_total")/preds)
		m.set("serve.shed_frac", delta("maya_serve_shed_total")/preds)
		m.set("serve.degraded_frac", delta("maya_serve_degraded_total")/preds)
	}
	pred := w.srv.Predictor()
	s := pred.CaptureCache().Stats()
	hits, misses := s.Hits-w.cacheBase.Hits, s.Misses-w.cacheBase.Misses
	m.set("core.capture_cache_hit_ratio", float64(hits)/float64(hits+misses))

	// The facade calls under the service, made directly on its
	// predictor, and the HTTP path's cost over them: the same hot recipe
	// (its capture cached) asked for 200 times each way, one caller.
	var hot *serveRequest
	for i := range w.reqs {
		if w.reqs[i].kind == "predict" {
			hot = &w.reqs[i]
			break
		}
	}
	wl := w.wls[hot.recipes[0]]
	spec := w.pool[hot.recipes[0]]
	var direct, viaHTTP []time.Duration
	for i := 0; i <= 200; i++ {
		spec.FLOPs = hot.flops[0] * (1 + 1e-6*float64(i+1))
		t0 := time.Now()
		if _, err := pred.Predict(ctx, wl, maya.WithModelFLOPs(spec.FLOPs), maya.WithDType(maya.BF16)); err != nil {
			return err
		}
		direct = append(direct, time.Since(t0))
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := w.call(ctx, http.MethodPost, "/v1/predict", body); err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, time.Since(t0))
	}
	// The first round may have paid the capture.
	m.set("serve.http_overhead_ms", quantileMS(viaHTTP[1:], 0.5)-quantileMS(direct[1:], 0.5))

	batch := make([]maya.Request, 4)
	for i := range batch {
		batch[i] = maya.Request{Workload: wl, Options: []maya.PredictOption{
			maya.WithModelFLOPs(hot.flops[0] * (1 + 1e-6*float64(i+1))), maya.WithDType(maya.BF16)}}
	}
	var batches []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		res, err := pred.PredictBatch(ctx, batch)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		batches = append(batches, ms(time.Since(t0)))
	}
	m.set("maya.predict_batch_ms", median(batches))

	trc, err := pred.Capture(ctx, wl)
	if err != nil {
		return err
	}
	var writes, reads []float64
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Reset()
		t0 := time.Now()
		if _, err := trc.WriteTo(&buf); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := maya.ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		reads = append(reads, ms(time.Since(t0)))
	}
	m.set("maya.trace_write_ms", median(writes))
	m.set("maya.trace_read_ms", median(reads))
	m.set("maya.trace_kb", float64(buf.Len())/1e3)
	return nil
}
