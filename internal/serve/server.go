// Package serve is Maya's multi-tenant prediction service layer: an
// HTTP/JSON front over one shared maya.Predictor, built for heavy
// interactive what-if traffic. Every prediction takes one path,
// admit → decide → coalesce → pool → predict → settle:
//
//   - Admit (Server.admit, shared with /v1/capture): drain check,
//     bounded body, then a per-tenant token bucket (X-Maya-Tenant) in
//     front of a bounded service-wide queue — fairness first, then
//     load-shedding instead of unbounded queueing.
//   - Decide (control.decide): queue-delay shedding, then the predict
//     circuit breaker, each falling back to a stale answer before
//     refusing with 429 / 503.
//   - Coalesce: concurrent identical predictions single-flight into
//     one execution (flight.Group), on top of the predictor's
//     fingerprinted capture cache — N identical in-flight requests
//     pay one capture and one simulate.
//   - Pool (Server.onPool): a bounded worker count executes
//     predictions, keeping the process-wide simulation-engine pool
//     hot; a panic on a worker becomes an error.
//   - Predict: the ordinary maya.Predictor pipeline, with the request
//     deadline mapped onto the context cancellation every layer
//     already observes.
//   - Settle (control.settle): the breaker observes the outcome and a
//     success refreshes the stale answer.
//
// runResilience, the deterministic chaos harness, drives the same
// decide/settle pair on a virtual clock.
//
// Endpoints: POST /v1/predict (single or batch), POST /v1/capture,
// GET /v1/traces/{fingerprint}, POST /v1/traces, GET /metrics
// (Prometheus text), GET /healthz (build info, cache stats).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maya"
	"maya/internal/buildinfo"
	"maya/internal/flight"
	"maya/internal/pool"
)

// Config shapes a Server. The zero value of every optional field
// selects a sensible default; Cluster is required.
type Config struct {
	// Cluster is the hardware every prediction targets.
	Cluster maya.Cluster
	// Topology is the network-fabric spec the predictor models the
	// cluster with ("" or "auto" derives it from the hardware; see
	// maya.WithTopology for the spec grammar). Validated by New.
	Topology string
	// Congestion makes every prediction resolve collectives against
	// link-level contention (maya.WithCongestion).
	Congestion bool
	// Profile selects the estimator profile (default ProfileLLM).
	Profile maya.ProfileKind
	// Workers bounds concurrent predictions (default GOMAXPROCS).
	Workers int
	// Queue bounds admitted-but-unfinished requests (default
	// 4*Workers).
	Queue int
	// TenantRate and TenantBurst shape the per-tenant token bucket:
	// sustained predictions/sec and burst allowance. TenantRate <= 0
	// disables tenant throttling.
	TenantRate  float64
	TenantBurst int
	// CaptureCacheSize bounds the fingerprinted capture LRU shared by
	// all requests (default 256).
	CaptureCacheSize int
	// TraceStoreSize bounds the /v1/traces store (default 128).
	TraceStoreSize int
	// DefaultDeadline applies to requests without deadline_ms;
	// MaxDeadline clamps what requests may ask for. Defaults: 30s, 2m.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Preload lists extra estimator suites to warm at boot, as
	// "CLUSTERSPEC" or "CLUSTERSPEC/PROFILE" entries (e.g. "8xV100",
	// "32xH100/llm"). The serving cluster's own suite is always
	// warmed.
	Preload []string

	// ShedTarget and ShedInterval shape overload shedding: when the
	// estimated queue wait stays above ShedTarget for ShedInterval,
	// arrivals whose wait estimate is still above target are shed
	// with 429 (CoDel-style); independently, a request whose estimate
	// exceeds its own remaining deadline is shed immediately.
	// Defaults: 150ms, 1s.
	ShedTarget   time.Duration
	ShedInterval time.Duration
	// BreakerThreshold consecutive dependency failures trip the
	// per-dependency circuit breakers; BreakerProbe is the open →
	// half-open probe interval. Defaults: 5, 1s.
	BreakerThreshold int
	BreakerProbe     time.Duration
	// DegradeCacheSize bounds the stale-result cache serving
	// `"degraded": true` answers while shedding or with a breaker
	// open (default 256).
	DegradeCacheSize int
	// StatePath, when set, persists the trace store there: an atomic
	// snapshot after every accepted trace and on drain, restored at
	// boot with per-entry checksum validation (corrupt entries are
	// skipped, not fatal).
	StatePath string
	// Chaos, when set, wraps the predictor dependency in a
	// fault-injecting shim driven by the plan — the test-only chaos
	// harness behind cmd/maya-serve's -chaos flag.
	Chaos *ChaosPlan
	// Logf, when set, receives operational log lines (evictions,
	// snapshot recovery problems). nil discards them.
	Logf func(format string, args ...any)
}

// Server is the service instance: one predictor, its caches, and the
// admission/coalescing/pool machinery. Create with New, expose with
// Handler, warm with Warm, retire with Drain.
type Server struct {
	cfg     Config
	pred    *maya.Predictor
	backend backend // the predictor, or the chaos shim around it
	chaos   *chaosBackend
	adm     *Admission
	pool    *Pool
	co      flight.Group[string, predictOutcome] // coalesces identical in-flight predictions
	metrics *Metrics
	store   *traceStore
	mux     *http.ServeMux
	build   buildinfo.Info
	started time.Time

	// Resilience layer: the prediction control plane (queue-delay
	// shedding, the predict breaker, the stale-result cache) and the
	// capture dependency's own breaker.
	*control
	cbreaker  *Breaker // guards Capture
	snapStats SnapshotStats
	stateMu   sync.Mutex // serializes snapshot writes

	draining atomic.Bool

	// testGate, when set (tests only), is called by each coalescing
	// leader on its pool slot before predicting — a hold point that
	// lets tests pile provably-concurrent identical requests onto one
	// leader.
	testGate func()
}

// Resilience defaults, shared with the virtual-time harness.
const (
	defaultShedTarget       = 150 * time.Millisecond
	defaultShedInterval     = time.Second
	defaultBreakerThreshold = 5
	defaultBreakerProbe     = time.Second
)

// logfTo logs through an optional sink.
func logfTo(logf func(string, ...any), format string, args ...any) {
	if logf != nil {
		logf(format, args...)
	}
}

// New builds a Server for the cluster. It trains nothing: call Warm
// to pay estimator training at boot instead of on the first learned
// request.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 32
	}
	if cfg.CaptureCacheSize <= 0 {
		cfg.CaptureCacheSize = 256
	}
	if cfg.TraceStoreSize <= 0 {
		cfg.TraceStoreSize = 128
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.ShedTarget <= 0 {
		cfg.ShedTarget = defaultShedTarget
	}
	if cfg.ShedInterval <= 0 {
		cfg.ShedInterval = defaultShedInterval
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = defaultBreakerThreshold
	}
	if cfg.BreakerProbe <= 0 {
		cfg.BreakerProbe = defaultBreakerProbe
	}
	if cfg.DegradeCacheSize <= 0 {
		cfg.DegradeCacheSize = 256
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, err
		}
	}
	popts := []maya.PredictorOption{
		maya.WithEstimatorCache(maya.NewEstimatorCache()),
		maya.WithCaptureCache(maya.NewCaptureCache(cfg.CaptureCacheSize)),
		maya.WithTopology(cfg.Topology),
	}
	if cfg.Congestion {
		popts = append(popts, maya.WithCongestion())
	}
	pred, err := maya.NewPredictor(cfg.Cluster, cfg.Profile, popts...)
	if err != nil {
		return nil, err
	}
	store := newTraceStore(cfg.TraceStoreSize)
	var snapStats SnapshotStats
	if cfg.StatePath != "" {
		var err error
		store, snapStats, err = restoreTraceStore(cfg.StatePath, cfg.TraceStoreSize)
		if err == nil {
			err = snapStats.EntryErr
		}
		if err != nil {
			// A broken snapshot must never keep the service down:
			// serve with whatever recovered, and say so.
			logfTo(cfg.Logf, "serve: trace-store snapshot %s: %v (recovered %d, skipped %d)",
				cfg.StatePath, err, snapStats.Loaded, snapStats.Skipped)
		}
	}
	s := &Server{
		cfg:     cfg,
		pred:    pred,
		backend: pred,
		adm:     NewAdmission(cfg.Queue, cfg.TenantRate, cfg.TenantBurst),
		pool:    NewPool(cfg.Workers),
		metrics: &Metrics{},
		store:   store,
		mux:     http.NewServeMux(),
		build:   buildinfo.Get(),
		started: time.Now(),
		control: newControl(cfg.ShedTarget, cfg.ShedInterval, cfg.BreakerThreshold,
			cfg.BreakerProbe, cfg.DegradeCacheSize, time.Now),
		cbreaker: NewBreaker("capture", cfg.BreakerThreshold, cfg.BreakerProbe),
	}
	s.snapStats = snapStats
	s.store.onEvict = func(meta TraceMeta) {
		logfTo(cfg.Logf, "serve: trace store at capacity, evicted %s (%s on %s, %d bytes)",
			meta.Fingerprint, meta.Workload, meta.Cluster, meta.SizeBytes)
	}
	if cfg.Chaos != nil {
		s.chaos = newChaosBackend(pred, cfg.Chaos)
		s.backend = s.chaos
	}
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/capture", s.handleCapture)
	s.mux.HandleFunc("GET /v1/traces/{fingerprint}", s.handleTraceGet)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Predictor exposes the shared predictor (tests, embedders).
func (s *Server) Predictor() *maya.Predictor { return s.pred }

// Warm trains the serving cluster's estimator suite plus every
// Preload entry, so learned predictions pay no training latency.
func (s *Server) Warm(ctx context.Context) error {
	if err := s.pred.Warm(ctx); err != nil {
		return fmt.Errorf("serve: warming %s: %w", s.cfg.Cluster.Name, err)
	}
	for _, entry := range s.cfg.Preload {
		spec, profName, _ := strings.Cut(strings.TrimSpace(entry), "/")
		cluster, err := maya.ClusterByName(spec)
		if err != nil {
			return fmt.Errorf("serve: preload %q: %w", entry, err)
		}
		kind := s.cfg.Profile
		if profName != "" {
			if kind, err = ParseProfile(profName); err != nil {
				return fmt.Errorf("serve: preload %q: %w", entry, err)
			}
		}
		if err := s.pred.EstimatorCache().Warm(ctx, cluster, kind); err != nil {
			return fmt.Errorf("serve: preload %q: %w", entry, err)
		}
	}
	return nil
}

// persistState snapshots the trace store to StatePath (atomic
// temp-file + rename). A no-op when persistence is off; write
// problems are logged, never surfaced to the request that triggered
// the snapshot — durability is best-effort, serving is not.
func (s *Server) persistState() {
	if s.cfg.StatePath == "" {
		return
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if err := s.store.persist(s.cfg.StatePath); err != nil {
		logfTo(s.cfg.Logf, "serve: persisting trace store: %v", err)
	}
}

// Drain flips the server into drain mode: new requests are refused
// with 503 (and /healthz reports draining, so balancers stop routing)
// while in-flight requests run to completion, and the trace store is
// snapshotted a final time. Pair it with http.Server.Shutdown, which
// waits for those in-flight handlers.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.persistState()
}

// ParseProfile parses an estimator profile name.
func ParseProfile(name string) (maya.ProfileKind, error) {
	switch strings.ToLower(name) {
	case "llm":
		return maya.ProfileLLM, nil
	case "vision":
		return maya.ProfileVision, nil
	case "all":
		return maya.ProfileAll, nil
	}
	return 0, fmt.Errorf("unknown profile %q (have llm, vision, all)", name)
}

// profileName is ParseProfile's inverse, for /healthz.
func profileName(k maya.ProfileKind) string {
	switch k {
	case maya.ProfileLLM:
		return "llm"
	case maya.ProfileVision:
		return "vision"
	default:
		return "all"
	}
}

// tenantOf extracts the request's tenant identity. Untagged requests
// pool into the "default" tenant: they share one bucket rather than
// bypassing fairness.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Maya-Tenant")); t != "" {
		return t
	}
	return "default"
}

// errorBody is the JSON error envelope of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// fail answers with a JSON error and counts its status.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.countStatus(status)
	writeError(w, status, format, args...)
}

// millis renders a duration as fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// statusFor maps a prediction error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// countStatus folds a response status into the outcome counters.
func (s *Server) countStatus(status int) {
	switch status {
	case http.StatusOK:
		s.metrics.OK.Add(1)
	case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		s.metrics.BadInput.Add(1)
	case http.StatusTooManyRequests:
		s.metrics.Throttled.Add(1)
	case http.StatusServiceUnavailable:
		s.metrics.Rejected.Add(1)
	case http.StatusGatewayTimeout:
		s.metrics.Deadline.Add(1)
	default:
		s.metrics.Failed.Add(1)
	}
}

// PredictResult is one prediction's wire answer: the report on
// success, an error otherwise, plus serving metadata (whether this
// request shared a coalesced execution, and how long the executing
// leader waited for a worker).
type PredictResult struct {
	Report    *maya.Report `json:"report,omitempty"`
	Error     string       `json:"error,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	// Degraded marks a stale cached report served because the service
	// was shedding or the predictor breaker was open; StaleMS is the
	// result's age.
	Degraded    bool    `json:"degraded,omitempty"`
	StaleMS     float64 `json:"stale_ms,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms"`

	status      int    // internal: HTTP status this result maps to
	shed        string // internal: shed verdict, sent as X-Maya-Shed
	retryAfterS int    // internal: Retry-After seconds on shed 429s
}

// batchEnvelope is the wire form of a batch predict call.
type batchEnvelope struct {
	Requests []PredictSpec `json:"requests"`
}

// batchResponse answers a batch predict call positionally.
type batchResponse struct {
	Results []PredictResult `json:"results"`
}

// parsePredictBody accepts either one PredictSpec object or a
// {"requests": [...]} batch, returning the specs and whether the call
// was a batch.
func parsePredictBody(body []byte) ([]PredictSpec, bool, error) {
	var env batchEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Requests != nil {
		if len(env.Requests) == 0 {
			return nil, true, errors.New("empty requests array")
		}
		return env.Requests, true, nil
	}
	specs, err := parseSpec(body)
	return specs, false, err
}

// parseSpec parses a body holding exactly one PredictSpec object.
func parseSpec(body []byte) ([]PredictSpec, error) {
	var one PredictSpec
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, fmt.Errorf("malformed request body: %v", err)
	}
	return []PredictSpec{one}, nil
}

// requestCtx derives the request's deadline context: the largest
// deadline any spec asked for, defaulted and clamped by server
// config, layered over the connection context so client disconnects
// still cancel the pipeline.
func (s *Server) requestCtx(r *http.Request, specs []PredictSpec) (context.Context, context.CancelFunc) {
	var ms int64
	for i := range specs {
		if specs[i].DeadlineMS > ms {
			ms = specs[i].DeadlineMS
		}
	}
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = s.cfg.MaxDeadline
		// Compare in milliseconds: a huge deadline_ms would overflow
		// the conversion to a Duration.
		if ms < d.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), min(d, s.cfg.MaxDeadline))
}

// predictOutcome is what a coalescing flight produces.
type predictOutcome struct {
	report      *maya.Report
	queueWaitMS float64
}

// Request body limits: a larger body is refused whole, never cut short
// and parsed.
const (
	maxSpecBody  = 1 << 20  // a /v1/predict or /v1/capture request
	maxTraceBody = 64 << 20 // a POST /v1/traces upload
)

// readBody reads the request body, up to limit bytes. On failure it has
// answered — 413 naming the limit for a larger body, 400 otherwise —
// and ok is false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d MiB limit", tooBig.Limit>>20)
		return nil, false
	case err != nil:
		s.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// admit is the front door /v1/predict and /v1/capture share: refuse
// while draining, read the bounded body and parse it into specs,
// charge the tenant and claim a queue slot, start the in-flight and
// latency accounting, and derive the deadline context. On refusal it
// has already answered and ok is false; otherwise the handler defers
// done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, parse func([]byte) ([]PredictSpec, error)) (specs []PredictSpec, ctx context.Context, done func(), ok bool) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, read := s.readBody(w, r, maxSpecBody)
	if !read {
		return
	}
	specs, err := parse(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, err := s.adm.Admit(tenantOf(r), len(specs))
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrThrottled) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		s.fail(w, status, "%v", err)
		return
	}
	s.metrics.InFlight.Add(1)
	start := time.Now()
	ctx, cancel := s.requestCtx(r, specs)
	return specs, ctx, func() {
		cancel()
		s.metrics.Latency.observe(millis(time.Since(start)))
		s.metrics.InFlight.Add(-1)
		release()
	}, true
}

// handlePredict serves POST /v1/predict: the shared front door, then
// each spec through predictOne. Batch items are isolated — one
// failing spec reports its own error, its neighbors still answer.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var batch bool
	specs, ctx, done, ok := s.admit(w, r, func(body []byte) (specs []PredictSpec, err error) {
		specs, batch, err = parsePredictBody(body)
		return specs, err
	})
	if !ok {
		return
	}
	defer done()

	// Every item answers with its own status, an expired deadline
	// included, so the fan-out itself must not skip items once ctx is
	// done; predictOne never fails or panics, so neither does Each.
	results := make([]PredictResult, len(specs))
	_ = pool.Each(context.WithoutCancel(ctx), len(specs), len(specs), func(_, i int) error {
		results[i] = s.predictOne(ctx, &specs[i])
		return nil
	})

	if batch {
		// Batch responses are positional and always 200; per-item
		// status lives in each result.
		for i := range results {
			s.countStatus(results[i].status)
		}
		writeJSON(w, http.StatusOK, batchResponse{Results: results})
		return
	}
	res := results[0]
	s.countStatus(res.status)
	if res.shed != "" {
		w.Header().Set("X-Maya-Shed", res.shed)
	}
	if res.retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfterS))
	}
	writeJSON(w, res.status, res)
}

// recovered converts a recovered prediction panic into an error,
// counting it in maya_panics_total.
func (s *Server) recovered(v any) error {
	s.metrics.Panics.Add(1)
	return fmt.Errorf("internal error: prediction panicked: %v", v)
}

// onPool runs fn on a pool worker and returns its error, or the
// pool's when ctx ends before a worker frees up. A panic in fn is
// recovered into an error on the worker, so whoever waits on the
// result — a coalescing flight's followers included — gets an answer
// instead of a flight that never finishes. A panic the predictor's own
// fan-out already recovered (a *pool.PanicError from a workload's
// rank) arrives as fn's error and is counted the same way.
func (s *Server) onPool(ctx context.Context, fn func() error) (err error) {
	if runErr := s.pool.Run(ctx, func() {
		defer func() {
			if v := recover(); v != nil {
				err = s.recovered(v)
			}
		}()
		err = fn()
		var pe *pool.PanicError
		if errors.As(err, &pe) {
			s.metrics.Panics.Add(1)
		}
	}); runErr != nil {
		return runErr
	}
	return err
}

// predictOne runs one spec down the request path: decide (shed →
// breaker, each falling back to a stale answer before refusing) →
// coalesce → pool → predict → settle. Panics are recovered into 500s
// at two layers: on the pool worker (onPool), so a crashing leader
// still completes its coalescing flight, and around the whole path,
// so a batch item that panics still answers in its own slot.
func (s *Server) predictOne(ctx context.Context, spec *PredictSpec) (res PredictResult) {
	defer func() {
		if v := recover(); v != nil {
			res = PredictResult{Error: s.recovered(v).Error(), status: http.StatusInternalServerError}
		}
	}()
	s.metrics.Predictions.Add(1)
	w, opts, err := spec.build(s.cfg.Cluster)
	if err != nil {
		return PredictResult{Error: err.Error(), status: http.StatusBadRequest}
	}
	key := spec.predictKey(s.cfg.Cluster, w)

	var remaining time.Duration
	if dl, ok := ctx.Deadline(); ok {
		remaining = time.Until(dl)
	}
	d := s.decide(key, s.adm.Depth(), s.pool.Workers(), remaining)
	if d.shed != ShedAdmit {
		s.metrics.Shed.Add(1)
		s.metrics.QueueWaitAtReject.observe(millis(d.est))
		res.shed = d.shed.String()
	}
	switch d.verdict {
	case verdictDegraded:
		s.metrics.Degraded.Add(1)
		res.Report, res.Degraded, res.StaleMS, res.status = d.report, true, millis(d.age), http.StatusOK
		return res
	case verdictShed:
		// Refused early, with a Retry-After hint, rather than left to
		// rot in the queue.
		res.Error = fmt.Sprintf("overloaded: estimated queue wait %v above target %v",
			d.est.Round(time.Millisecond), s.shed.Target())
		if d.shed == ShedDeadline {
			res.Error = fmt.Sprintf("estimated queue wait %v exceeds remaining deadline %v",
				d.est.Round(time.Millisecond), remaining.Round(time.Millisecond))
		}
		res.status, res.retryAfterS = http.StatusTooManyRequests, retryAfterS(d.est)
		return res
	case verdictRejected:
		return PredictResult{Error: "predictor circuit open", status: http.StatusServiceUnavailable}
	}

	out, shared, err := s.co.Do(ctx, key, func() (o predictOutcome, err error) {
		queued := time.Now()
		err = s.onPool(ctx, func() (err error) {
			o.queueWaitMS = millis(time.Since(queued))
			s.metrics.QueueWait.observe(o.queueWaitMS)
			if s.testGate != nil {
				s.testGate()
			}
			s.metrics.Executed.Add(1)
			execStart := time.Now()
			o.report, err = s.backend.Predict(ctx, w, opts...)
			s.shed.Observe(time.Since(execStart))
			return err
		})
		return o, err
	})
	s.settle(key, out.report, outcomeOf(err))
	if shared {
		s.metrics.Coalesced.Add(1)
	}
	if err != nil {
		return PredictResult{Error: err.Error(), Coalesced: shared, status: statusFor(err)}
	}
	return PredictResult{
		Report:      out.report,
		Coalesced:   shared,
		QueueWaitMS: out.queueWaitMS,
		status:      http.StatusOK,
	}
}

// handleCapture serves POST /v1/capture: run (or reuse) the capture
// for a spec, archive its serialized form in the trace store, and
// answer with the fingerprint handle GET /v1/traces accepts.
func (s *Server) handleCapture(w http.ResponseWriter, r *http.Request) {
	specs, ctx, done, ok := s.admit(w, r, parseSpec)
	if !ok {
		return
	}
	defer done()
	spec := &specs[0]
	wl, _, err := spec.build(s.cfg.Cluster)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.cbreaker.Allow() {
		s.fail(w, http.StatusServiceUnavailable, "capture circuit open")
		return
	}
	var capOpts []maya.PredictOption
	if spec.Seed != 0 {
		capOpts = append(capOpts, maya.WithSeed(spec.Seed))
	}
	var tr *maya.Trace
	err = s.onPool(ctx, func() (err error) {
		tr, err = s.backend.Capture(ctx, wl, capOpts...)
		return err
	})
	s.cbreaker.Observe(outcomeOf(err))
	if err != nil {
		s.fail(w, statusFor(err), "%v", err)
		return
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		s.fail(w, http.StatusInternalServerError, "serializing trace: %v", err)
		return
	}
	meta := metaOf(fingerprintOf([]byte(spec.captureKey(s.cfg.Cluster, wl))), tr, buf.Len())
	s.store.put(buf.Bytes(), meta)
	s.persistState()
	s.metrics.Captures.Add(1)
	s.countStatus(http.StatusOK)
	writeJSON(w, http.StatusOK, meta)
}

// handleTraceGet serves GET /v1/traces/{fingerprint}: the serialized
// trace, loadable anywhere with maya.ReadTrace (or `maya simulate
// -trace`).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	fp := r.PathValue("fingerprint")
	st, ok := s.store.get(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "no trace with fingerprint %q", fp)
		return
	}
	s.metrics.TraceServes.Add(1)
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Maya-Workload", st.meta.Workload)
	w.Header().Set("X-Maya-Cluster", st.meta.Cluster)
	w.Write(st.raw)
}

// handleTraceUpload serves POST /v1/traces: accept a serialized trace
// (validated end to end — magic, version, checksum, payload) and
// archive it under a content fingerprint.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	raw, ok := s.readBody(w, r, maxTraceBody)
	if !ok {
		return
	}
	tr, err := maya.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		switch {
		case errors.Is(err, maya.ErrTraceVersion):
			s.fail(w, http.StatusBadRequest, "unsupported trace version: %v", err)
		case errors.Is(err, io.ErrUnexpectedEOF):
			s.fail(w, http.StatusBadRequest, "truncated trace: %v", err)
		default:
			s.fail(w, http.StatusBadRequest, "invalid trace: %v", err)
		}
		return
	}
	meta := metaOf(fingerprintOf(raw), tr, len(raw))
	s.store.put(raw, meta)
	s.persistState()
	s.metrics.TraceUploads.Add(1)
	s.countStatus(http.StatusOK)
	writeJSON(w, http.StatusOK, meta)
}

// healthzBody is the /healthz JSON shape.
type healthzBody struct {
	Status         string                 `json:"status"` // "ok" or "draining"
	Build          buildinfo.Info         `json:"build"`
	Cluster        string                 `json:"cluster"`
	Topology       string                 `json:"topology"`
	Congestion     bool                   `json:"congestion"`
	Profile        string                 `json:"profile"`
	Workers        int                    `json:"workers"`
	UptimeS        float64                `json:"uptime_s"`
	EstimatorCache maya.CacheStats        `json:"estimator_cache"`
	CaptureCache   maya.CaptureCacheStats `json:"capture_cache"`
	TracesStored   int                    `json:"traces_stored"`

	// Resilience state: whether overload shedding is active, each
	// dependency breaker's position, how many identities have a stale
	// fallback, and what boot recovery found in the snapshot.
	Shedding        bool              `json:"shedding"`
	Breakers        map[string]string `json:"breakers"`
	DegradeEntries  int               `json:"degrade_entries"`
	TracesRecovered int               `json:"traces_recovered"`
	TracesSkipped   int               `json:"traces_skipped"`
}

// handleHealthz serves GET /healthz. A draining server answers 503 so
// load balancers stop routing to it while in-flight work completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzBody{
		Status:         status,
		Build:          s.build,
		Cluster:        s.cfg.Cluster.Name,
		Topology:       s.pred.Topology(),
		Congestion:     s.pred.CongestionDefault(),
		Profile:        profileName(s.cfg.Profile),
		Workers:        s.pool.Workers(),
		UptimeS:        time.Since(s.started).Seconds(),
		EstimatorCache: s.pred.EstimatorCache().Stats(),
		CaptureCache:   s.pred.CaptureCache().Stats(),
		TracesStored:   s.store.len(),
		Shedding:       s.shed.Shedding(),
		Breakers: map[string]string{
			s.pbreaker.Name(): s.pbreaker.State().String(),
			s.cbreaker.Name(): s.cbreaker.State().String(),
		},
		DegradeEntries:  s.degrade.len(),
		TracesRecovered: s.snapStats.Loaded,
		TracesSkipped:   s.snapStats.Skipped,
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format: serving counters, latency histograms, pool and admission
// gauges, and the estimator/capture cache stats (whose snapshots are
// lock-free, so continuous polling never contends with requests).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	var b bytes.Buffer
	counter := func(name string, v int64) { fmt.Fprintf(&b, "%s %d\n", name, v) }

	counter("maya_serve_requests_total", m.Requests.Load())
	counter("maya_serve_requests_ok_total", m.OK.Load())
	counter("maya_serve_requests_bad_input_total", m.BadInput.Load())
	counter("maya_serve_throttled_total", m.Throttled.Load())
	counter("maya_serve_rejected_total", m.Rejected.Load())
	counter("maya_serve_deadline_total", m.Deadline.Load())
	counter("maya_serve_failed_total", m.Failed.Load())
	counter("maya_panics_total", m.Panics.Load())
	counter("maya_serve_predictions_total", m.Predictions.Load())
	counter("maya_serve_predictions_executed_total", m.Executed.Load())
	counter("maya_serve_predictions_coalesced_total", m.Coalesced.Load())
	counter("maya_serve_captures_total", m.Captures.Load())
	counter("maya_serve_trace_uploads_total", m.TraceUploads.Load())
	counter("maya_serve_trace_serves_total", m.TraceServes.Load())
	counter("maya_serve_inflight", m.InFlight.Load())
	counter("maya_serve_pool_workers", int64(s.pool.Workers()))
	counter("maya_serve_pool_busy", int64(s.pool.Busy()))
	counter("maya_serve_pool_waiting", int64(s.pool.Waiting()))
	counter("maya_serve_pool_completed_total", s.pool.Completed())
	counter("maya_serve_admission_depth", int64(s.adm.Depth()))
	counter("maya_serve_admission_capacity", int64(s.adm.Capacity()))
	counter("maya_serve_traces_stored", int64(s.store.len()))
	counter("maya_serve_trace_store_evictions_total", s.store.Evictions())
	fmt.Fprintf(&b, "maya_serve_uptime_seconds %g\n", time.Since(s.started).Seconds())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	counter("maya_serve_draining", draining)

	es := s.pred.EstimatorCache().Stats()
	counter("maya_estimator_cache_hits_total", es.Hits)
	counter("maya_estimator_cache_misses_total", es.Misses)
	counter("maya_estimator_cache_trained_total", es.Trained)
	counter("maya_estimator_cache_evictions_total", es.Evictions)
	counter("maya_estimator_cache_errors_total", es.Errors)
	counter("maya_estimator_cache_entries", int64(es.Entries))

	cs := s.pred.CaptureCache().Stats()
	counter("maya_capture_cache_hits_total", cs.Hits)
	counter("maya_capture_cache_misses_total", cs.Misses)
	counter("maya_capture_cache_evictions_total", cs.Evictions)
	counter("maya_capture_cache_errors_total", cs.Errors)
	counter("maya_capture_cache_entries", int64(cs.Entries))

	// Resilience: shedding, per-dependency breakers, degradation.
	counter("maya_serve_shed_total", m.Shed.Load())
	counter("maya_serve_degraded_total", m.Degraded.Load())
	shedding := int64(0)
	if s.shed.Shedding() {
		shedding = 1
	}
	counter("maya_serve_shedding", shedding)
	for _, br := range []*Breaker{s.pbreaker, s.cbreaker} {
		fmt.Fprintf(&b, "maya_serve_breaker_state{dep=%q} %d\n", br.Name(), int(br.State()))
		fmt.Fprintf(&b, "maya_serve_breaker_trips_total{dep=%q} %d\n", br.Name(), br.Trips())
		fmt.Fprintf(&b, "maya_serve_breaker_probes_total{dep=%q} %d\n", br.Name(), br.Probes())
		fmt.Fprintf(&b, "maya_serve_breaker_recoveries_total{dep=%q} %d\n", br.Name(), br.Recoveries())
		fmt.Fprintf(&b, "maya_serve_breaker_rejected_total{dep=%q} %d\n", br.Name(), br.Rejected())
	}
	counter("maya_serve_degrade_cache_entries", int64(s.degrade.len()))
	counter("maya_serve_degrade_hits_total", s.degrade.hits.Load())
	counter("maya_serve_degrade_misses_total", s.degrade.misses.Load())
	if s.chaos != nil {
		counter("maya_serve_chaos_injected_total", s.chaos.injected.Load())
	}

	m.Latency.writeProm(&b, "maya_serve_latency_seconds")
	m.QueueWait.writeProm(&b, "maya_serve_queue_wait_seconds")
	m.QueueWaitAtReject.writeProm(&b, "maya_serve_queue_wait_at_reject_seconds")

	fmt.Fprintf(&b, "maya_serve_topology_info{topology=%q} 1\n", s.pred.Topology())
	congested := int64(0)
	if s.pred.CongestionDefault() {
		congested = 1
	}
	counter("maya_serve_congestion_enabled", congested)

	fmt.Fprintf(&b, "maya_build_info{version=%q,revision=%q} 1\n",
		s.build.Version, s.build.Revision)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(b.Bytes())
}
