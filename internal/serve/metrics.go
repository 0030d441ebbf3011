package serve

import (
	"fmt"
	"io"
	"sync/atomic"
)

// numLatencyBuckets counts the finite histogram bounds; bucket
// numLatencyBuckets (one past) is the implicit +Inf catch-all.
const numLatencyBuckets = 16

// latencyBucketsMS are the upper bounds (milliseconds) of the serving
// latency histogram, log-spaced from sub-millisecond cache hits to
// the multi-second captures of large topologies.
var latencyBucketsMS = [numLatencyBuckets]float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000,
}

// histogram is a fixed-bucket latency histogram with atomic counters:
// recording is lock-free and wait-free, and snapshots for /metrics
// never block request threads.
type histogram struct {
	counts [numLatencyBuckets + 1]atomic.Int64
	sumUS  atomic.Int64 // sum in microseconds: integer, so atomically addable
	total  atomic.Int64
}

// observe records one latency in milliseconds.
func (h *histogram) observe(ms float64) {
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUS.Add(int64(ms * 1000))
	h.total.Add(1)
}

// writeProm renders the histogram in Prometheus text exposition
// format under the given metric name (unit: seconds, per convention).
func (h *histogram) writeProm(w io.Writer, name string) {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(latencyBucketsMS) {
			le = fmt.Sprintf("%g", latencyBucketsMS[i]/1000)
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

// Metrics is the serving-layer instrumentation: request outcomes,
// coalescing effectiveness, admission pressure and latency
// distributions. Every field is an atomic or an atomic-bucket
// histogram, so the /metrics endpoint can poll continuously without
// contending with the request path.
type Metrics struct {
	// Request outcomes, by disposition.
	Requests  atomic.Int64 // everything that reached the service layer
	OK        atomic.Int64 // 200s
	BadInput  atomic.Int64 // 400s and 404s (client errors)
	Throttled atomic.Int64 // 429s (tenant token bucket or overload shed)
	Rejected  atomic.Int64 // 503s (queue full, breaker open or draining)
	Deadline  atomic.Int64 // 504s (request deadline exceeded)
	Failed    atomic.Int64 // 500s (pipeline errors)

	// Resilience outcomes. Shed counts queue-delay/deadline-aware
	// 429s from the Shedder (a subset of the 429s Throttled counts);
	// Degraded counts stale results served with `"degraded": true`
	// while shedding or with a breaker open.
	Shed     atomic.Int64
	Degraded atomic.Int64

	// Predictions counts prediction items served (a batch of k counts
	// k); Executed counts predictions actually run by a coalescing
	// leader; Coalesced counts followers that shared a leader's
	// result. Executed + Coalesced == Predictions for served items.
	Predictions atomic.Int64
	Executed    atomic.Int64
	Coalesced   atomic.Int64

	// Captures counts /v1/capture runs; TraceUploads counts accepted
	// /v1/traces uploads; TraceServes counts trace downloads.
	Captures     atomic.Int64
	TraceUploads atomic.Int64
	TraceServes  atomic.Int64

	// Panics counts prediction executions recovered from a panic and
	// answered as 500s: the serving layer turns a crashing predictor
	// into an error instead of a dead process.
	Panics atomic.Int64

	// InFlight gauges requests admitted and not yet answered.
	InFlight atomic.Int64

	// Latency is end-to-end request latency (admission to response
	// body); QueueWait is time spent waiting for a prediction worker;
	// QueueWaitAtReject records the estimated queue wait at each shed
	// rejection — the delay the shedder refused to impose.
	Latency           histogram
	QueueWait         histogram
	QueueWaitAtReject histogram
}
