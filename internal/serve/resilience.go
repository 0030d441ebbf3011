package serve

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"maya"
)

// resilienceConfig shapes one deterministic chaos run: a virtual-time
// discrete-event walk of the service control plane — the server's own
// decide/settle path (decide.go) on an injected clock — against a
// modeled predictor dependency whose behavior comes from the
// ChaosPlan. Only arrivals, workers and the dependency are modeled
// here (the emulate-the-node/model-the-boundary split: the policy
// layer is the code that ships, the dependency is a fixed service
// time), so the whole run is a pure function of the config and plan
// seed — bit-identical across reruns, per the repo's determinism
// discipline.
type resilienceConfig struct {
	// Plan is the chaos scenario (required; predict-target events
	// apply).
	Plan *ChaosPlan
	// Workers is the prediction pool size (default 4).
	Workers int
	// Service is the modeled per-prediction service time (default
	// 10ms).
	Service time.Duration
	// Arrival is the inter-arrival time of requests; Service/Workers
	// is exactly saturation, half of that is 2x overload (default:
	// saturation).
	Arrival time.Duration
	// Duration bounds the run in virtual time (default 8s).
	Duration time.Duration
	// Deadline is every request's deadline (default 250ms).
	Deadline time.Duration
	// Keys rotates requests across this many distinct prediction
	// identities (default 4) — the degrade cache's working set.
	Keys int
	// Bucket is the goodput-timeline bucket width (default 100ms).
	Bucket time.Duration

	// Control-plane knobs; zero values take the server defaults.
	ShedTarget       time.Duration
	ShedInterval     time.Duration
	BreakerThreshold int
	BreakerProbe     time.Duration
	// FailFast is how quickly the dependency answers an injected
	// error or outage (default 1ms).
	FailFast time.Duration
}

// resilienceBucket is one goodput-timeline slot.
type resilienceBucket struct {
	StartMS  int64 `json:"start_ms"`
	OK       int   `json:"ok"`
	Degraded int   `json:"degraded"`
	Shed     int   `json:"shed"`
	Rejected int   `json:"rejected"`
	Failed   int   `json:"failed"`
}

// resilienceReport is the run's outcome: response classes, breaker
// activity, bounded-latency evidence and the goodput recovery time
// after the last outage window.
type resilienceReport struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`       // fresh predictions served
	Degraded int `json:"degraded"` // stale results served during shed/open
	Shed     int `json:"shed"`     // 429-class rejections (no stale cover)
	Rejected int `json:"rejected"` // breaker short-circuits (no stale cover)
	Failed   int `json:"failed"`   // dependency errors + deadline expiries

	BreakerTrips      int64 `json:"breaker_trips"`
	BreakerProbes     int64 `json:"breaker_probes"`
	BreakerRecoveries int64 `json:"breaker_recoveries"`

	// P99ResponseMS is the 99th percentile time-to-response over
	// accepted requests (fresh + degraded) — the bounded-latency
	// claim: shedding answers immediately, so nothing queues past its
	// deadline.
	P99ResponseMS float64 `json:"p99_response_ms"`
	// PreFaultGoodputRPS is the fresh-prediction rate before the
	// first fault window opens.
	PreFaultGoodputRPS float64 `json:"pre_fault_goodput_rps"`
	// RecoveryMS is how long after the last outage window closed the
	// fresh-prediction rate recovered to >= 90% of PreFaultGoodputRPS
	// (bucket granularity); -1 if it never did.
	RecoveryMS int64 `json:"recovery_ms"`

	Buckets []resilienceBucket `json:"buckets"`
}

// completion is one in-flight modeled prediction finishing at a
// virtual time.
type completion struct {
	at      time.Duration
	seq     int
	key     string
	service time.Duration // actual busy time on the worker
	outcome breakerOutcome
}

// completionHeap orders completions by (time, sequence) — the same
// strict ordering discipline the simulation engine uses, so the walk
// is deterministic.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)       { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any         { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h completionHeap) peek() *completion { return &h[0] }

// runResilience executes one deterministic chaos run and reports
// goodput, shed/degraded/failed classes and recovery time. The same
// config (including the plan seed) always produces a byte-identical
// report.
func runResilience(cfg resilienceConfig) (*resilienceReport, error) {
	if cfg.Plan == nil {
		return nil, errors.New("serve: resilience run needs a chaos plan")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Service <= 0 {
		cfg.Service = 10 * time.Millisecond
	}
	if cfg.Arrival <= 0 {
		cfg.Arrival = cfg.Service / time.Duration(cfg.Workers)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 8 * time.Second
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 250 * time.Millisecond
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 4
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 100 * time.Millisecond
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
	if cfg.FailFast <= 0 {
		cfg.FailFast = time.Millisecond
	}

	// The server's control plane on a virtual clock.
	base := time.Unix(0, 0).UTC()
	var vnow time.Duration
	ctl := newControl(cfg.ShedTarget, cfg.ShedInterval, cfg.BreakerThreshold, cfg.BreakerProbe,
		cfg.Keys, func() time.Time { return base.Add(vnow) })
	staleReport := &maya.Report{} // counted, never inspected

	workers := make([]time.Duration, cfg.Workers) // per-worker free-at
	var pending completionHeap
	inSystem := 0
	var calls uint64

	rep := &resilienceReport{}
	nBuckets := int(cfg.Duration/cfg.Bucket) + 1
	// Generous tail: completions can land past Duration.
	buckets := make([]resilienceBucket, nBuckets+int(cfg.Deadline/cfg.Bucket)+2)
	bucketOf := func(t time.Duration) *resilienceBucket {
		i := int(t / cfg.Bucket)
		if i < 0 {
			i = 0
		}
		if i >= len(buckets) {
			i = len(buckets) - 1
		}
		return &buckets[i]
	}
	var accepted []time.Duration // time-to-response of OK + degraded

	// drain processes completions due at or before t, in (time, seq)
	// order: the completion's effects — EWMA update, breaker
	// observation, stale-cache refresh — happen at its own virtual
	// time, as they would in the live server.
	drain := func(t time.Duration) {
		for len(pending) > 0 && pending.peek().at <= t {
			c := heap.Pop(&pending).(completion)
			vnow = c.at
			inSystem--
			ctl.shed.Observe(c.service)
			ctl.settle(c.key, staleReport, c.outcome)
		}
		vnow = t
	}

	for seq := 0; ; seq++ {
		t := time.Duration(seq) * cfg.Arrival
		if t >= cfg.Duration {
			break
		}
		drain(t)
		rep.Requests++
		key := fmt.Sprintf("k%d", seq%cfg.Keys)

		// The decision the live server would make; the arrival counts
		// toward its own queue depth, as it does past Admit there.
		switch ctl.decide(key, inSystem+1, cfg.Workers, cfg.Deadline).verdict {
		case verdictDegraded:
			rep.Degraded++
			bucketOf(t).Degraded++
			accepted = append(accepted, 0)
			continue
		case verdictShed:
			rep.Shed++
			bucketOf(t).Shed++
			continue
		case verdictRejected:
			rep.Rejected++
			bucketOf(t).Rejected++
			continue
		}
		// Admitted: the modeled dependency call on the earliest-free
		// worker (ties to the lowest index — deterministic).
		w := 0
		for i := 1; i < cfg.Workers; i++ {
			if workers[i] < workers[w] {
				w = i
			}
		}
		start := max(t, workers[w])
		calls++
		var c completion
		c.seq = seq
		c.key = key
		if e := cfg.Plan.effect(ChaosTargetPredict, start, calls); e != nil {
			switch e.Kind {
			case ChaosOutage, ChaosError, ChaosPanic:
				// Fail fast: the dependency answers an error (or a
				// recovered panic) almost immediately.
				c.at = start + cfg.FailFast
				c.service = cfg.FailFast
				c.outcome = breakerFailure
				rep.Failed++
				bucketOf(c.at).Failed++
			case ChaosLatency:
				svc := cfg.Service + time.Duration(e.LatencyMS)*time.Millisecond
				c.at = start + svc
				c.service = svc
				c.outcome = breakerSuccess
			}
		} else {
			c.at = start + cfg.Service
			c.service = cfg.Service
			c.outcome = breakerSuccess
		}
		if c.outcome == breakerSuccess {
			if c.at-t > cfg.Deadline {
				// The request's context expires first: a 504, and the
				// worker is released at the cancellation point.
				c.at = t + cfg.Deadline
				c.service = c.at - start
				c.outcome = breakerAborted
				rep.Failed++
				bucketOf(c.at).Failed++
			} else {
				rep.OK++
				bucketOf(c.at).OK++
				accepted = append(accepted, c.at-t)
			}
		}
		workers[w] = c.at
		inSystem++
		heap.Push(&pending, c)
	}
	drain(cfg.Duration + cfg.Deadline + time.Second) // flush everything

	rep.BreakerTrips = ctl.pbreaker.Trips()
	rep.BreakerProbes = ctl.pbreaker.Probes()
	rep.BreakerRecoveries = ctl.pbreaker.Recoveries()

	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	if n := len(accepted); n > 0 {
		i := int(0.99 * float64(n-1))
		rep.P99ResponseMS = millis(accepted[i])
	}

	// Pre-fault goodput and recovery, against the plan's fault span.
	firstFrom, lastUntil := int64(-1), int64(-1)
	for _, e := range cfg.Plan.Events {
		if firstFrom < 0 || e.FromMS < firstFrom {
			firstFrom = e.FromMS
		}
		until := e.UntilMS
		if until == 0 {
			until = cfg.Duration.Milliseconds()
		}
		if until > lastUntil {
			lastUntil = until
		}
	}
	trim := len(buckets)
	for trim > 0 && buckets[trim-1] == (resilienceBucket{StartMS: buckets[trim-1].StartMS}) {
		trim--
	}
	for i := range buckets {
		buckets[i].StartMS = int64(i) * cfg.Bucket.Milliseconds()
	}
	rep.Buckets = buckets[:trim]
	if firstFrom > 0 {
		var pre int
		var preBuckets int
		for _, b := range rep.Buckets {
			if b.StartMS+cfg.Bucket.Milliseconds() <= firstFrom {
				pre += b.OK
				preBuckets++
			}
		}
		if preBuckets > 0 {
			rep.PreFaultGoodputRPS = float64(pre) / (float64(preBuckets) * cfg.Bucket.Seconds())
		}
	}
	rep.RecoveryMS = -1
	if lastUntil >= 0 && rep.PreFaultGoodputRPS > 0 {
		want := 0.9 * rep.PreFaultGoodputRPS * cfg.Bucket.Seconds()
		for _, b := range rep.Buckets {
			if b.StartMS < lastUntil {
				continue
			}
			if float64(b.OK) >= want {
				rep.RecoveryMS = b.StartMS - lastUntil
				break
			}
		}
	}
	return rep, nil
}
