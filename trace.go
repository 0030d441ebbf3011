package maya

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"maya/internal/core"
)

// Trace is the durable artifact of one capture: the collated
// execution trace of a workload on a cluster, with communicator
// membership, dedup accounting and the peak-memory / OOM verdict.
//
// Emulation and collation are the expensive half of a prediction;
// a Trace pays them once. It is immutable — Simulate reads durations
// from capture-attached estimate plans, never writing the trace
// itself — so one capture feeds any number of
// predictions (learned estimators, oracle, netsim collectives,
// physical replay), can be serialized with WriteTo, archived, and
// reloaded with ReadTrace on another machine or another day.
//
//	tr, _ := pred.Capture(ctx, w)
//	learned, _ := pred.Simulate(ctx, tr, maya.WithModelFLOPs(f))
//	oracle, _ := pred.Simulate(ctx, tr, maya.WithOracleAnnotation())
//	actual, _ := pred.Simulate(ctx, tr, maya.WithPhysicalReplay())
type Trace struct {
	cap *core.Capture
}

// TraceFormatVersion is the on-disk format version WriteTo emits, a
// compact binary payload. ReadTrace reads it and also versions 1 (a
// JSON payload) and 2 (binary, with host delays, mallocs and frees as
// ops of their own) that earlier releases wrote.
const TraceFormatVersion = core.TraceFormatVersion

// Serialization errors, matchable with errors.Is.
var (
	// ErrTraceFormat marks input that is not a Maya trace or is
	// corrupt.
	ErrTraceFormat = core.ErrTraceFormat
	// ErrTraceVersion marks a trace written by an incompatible format
	// version.
	ErrTraceVersion = core.ErrTraceVersion
)

// Workload names the captured training program.
func (t *Trace) Workload() string { return t.cap.Workload }

// Cluster names the cluster the capture modeled.
func (t *Trace) Cluster() string { return t.cap.Cluster }

// Topology is the network-fabric spec the capture's predictor was
// configured with ("" for the cluster-derived auto topology).
// Provenance only: the trace itself is topology-independent and can
// be re-simulated under any fabric.
func (t *Trace) Topology() string { return t.cap.Topology }

// TotalWorkers is the job's world size.
func (t *Trace) TotalWorkers() int { return t.cap.TotalWorkers }

// UniqueWorkers counts the ranks actually emulated after worker
// deduplication or selective launch.
func (t *Trace) UniqueWorkers() int { return t.cap.UniqueWorkers }

// PeakMemBytes is the largest per-device allocator high-water mark.
func (t *Trace) PeakMemBytes() int64 { return t.cap.PeakMemBytes }

// OOM reports whether the configuration exceeded device memory
// during capture. Simulating an OOM trace yields an OOM report.
func (t *Trace) OOM() bool { return t.cap.OOM }

// CaptureStages returns what this capture cost: the Emulate and
// Collate stage timings paid once at capture time. Reports from
// Simulate leave those stages zero — the reuse saving made visible.
func (t *Trace) CaptureStages() StageTimings {
	return StageTimings{Emulate: t.cap.EmulateTime, Collate: t.cap.CollateTime}
}

func (t *Trace) String() string {
	if t.cap.OOM {
		return fmt.Sprintf("trace of %s on %s: OOM (peak %0.1f GiB)",
			t.cap.Workload, t.cap.Cluster, float64(t.cap.PeakMemBytes)/(1<<30))
	}
	return fmt.Sprintf("trace of %s on %s: %d/%d unique workers, peak %0.1f GiB, captured in %v",
		t.cap.Workload, t.cap.Cluster, t.cap.UniqueWorkers, t.cap.TotalWorkers,
		float64(t.cap.PeakMemBytes)/(1<<30),
		(t.cap.EmulateTime + t.cap.CollateTime).Round(time.Millisecond))
}

// WriteTo serializes the trace in Maya's versioned format (magic,
// format version TraceFormatVersion, binary payload, checksum). Its
// bytes are a function of the trace's content. It implements
// io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) { return t.cap.WriteTo(w) }

// ReadTrace parses a trace produced by WriteTo, of this or an earlier
// release. It rejects non-trace input (ErrTraceFormat) and
// incompatible versions (ErrTraceVersion), and reports truncation as
// io.ErrUnexpectedEOF.
func ReadTrace(r io.Reader) (*Trace, error) {
	cap, err := core.ReadCapture(r)
	if err != nil {
		return nil, err
	}
	return &Trace{cap: cap}, nil
}

// Capture runs the expensive front half of a prediction — emulation
// of the workload's (unique) ranks and trace collation — once, and
// returns the immutable Trace artifact. No estimators are trained or
// consulted. Out-of-memory configurations are a result, not an
// error: the trace carries the OOM verdict.
//
// Capture honors the one capture-relevant option, WithSeed;
// annotation options are per-Simulate. When
// the predictor carries a CaptureCache and the workload is
// fingerprintable, the returned Trace may wrap a cached (shared,
// immutable) capture instead of re-emulating.
func (p *Predictor) Capture(ctx context.Context, w Workload, opts ...PredictOption) (*Trace, error) {
	if w == nil {
		return nil, errors.New("maya: Capture of a nil workload")
	}
	c, _, err := p.captureFor(ctx, p.captureOptions(p.settings(opts)), w)
	if err != nil {
		return nil, err
	}
	c.Keep()
	return &Trace{cap: c}, nil
}

// Simulate replays the trace through a duration overlay, paying only
// the estimate and simulate stages — the capture is reused and never
// mutated, and repeated Simulates of one trace reuse its
// capture-attached estimate plan, learned and ground-truth alike (each
// unique kernel shape is resolved once per timer, later calls read the
// plan in place). Per-call options select
// the annotation:
// the predictor's learned suite by default, WithOracleAnnotation for
// ground-truth kernel times, WithNetSim for netsim collectives, and
// WithPhysicalReplay for the full deployment stand-in (ground truth
// plus physical-mode replay, as MeasureActual). The returned report's
// Emulate/Collate stage timings are zero; the capture's own cost is
// available from Trace.CaptureStages.
//
// The trace must have been captured for the predictor's cluster.
func (p *Predictor) Simulate(ctx context.Context, tr *Trace, opts ...PredictOption) (*Report, error) {
	if tr == nil || tr.cap == nil {
		return nil, errors.New("maya: Simulate of a nil trace")
	}
	if tr.cap.Cluster != p.cluster.Name {
		return nil, fmt.Errorf("maya: trace captured on %s but the predictor models %s",
			tr.cap.Cluster, p.cluster.Name)
	}
	s := p.settings(opts)
	pipe, err := p.pipelineFor(ctx, s)
	if err != nil {
		return nil, err
	}
	return p.simulateCapture(ctx, pipe, tr.cap, s, false)
}
