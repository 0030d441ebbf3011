package maya

import (
	"io"

	"maya/internal/faults"
	"maya/internal/sim"
)

// FaultPlan is a deterministic fault scenario: stragglers, fail-stop
// deaths (explicit or drawn from a seeded MTBF process), elastic
// resizes and a checkpoint schedule, evaluated against a prediction
// into Report.Recovery. Plans are plain serializable data — build one
// in code or load it with ParseFaultPlan — and safe to share across
// concurrent calls. See WithFaults.
type FaultPlan = faults.Plan

// FaultStraggler selects ranks and slows their device compute.
type FaultStraggler = faults.Straggler

// FaultStop schedules one rank's fail-stop death.
type FaultStop = faults.FailStop

// FaultResize changes the world size at an iteration boundary.
type FaultResize = faults.Resize

// RecoveryReport is a fault scenario's evaluation: lost work,
// detection/restore/redo time, survivor idle time and goodput versus
// the fault-free baseline. Attached to Report.Recovery by calls that
// carry a FaultPlan.
type RecoveryReport = sim.RecoveryReport

// ParseFaultPlan decodes and validates a JSON fault plan (the format
// `maya simulate -faults` reads). Unknown fields are errors.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.ParsePlan(r) }

// WithFaults evaluates the fault scenario against this prediction:
// the plan's stragglers perturb the simulated run, its failures and
// resizes are walked over the iteration schedule, and the result
// lands in Report.Recovery. Fault scenarios address world ranks, so
// the option forces full capture (as if WithoutDedup were set) for
// the calls it applies to; captures taken without it cannot be
// reused by fault calls. Not combinable with physical replay —
// MeasureActual models the silicon, not operational faults.
// Deterministic: equal plans and workloads yield bit-identical
// recovery reports. As a PredictorOption it becomes the predictor's
// default plan, and every call of that predictor captures every rank,
// even one that drops the plan with WithFaults(nil); as a
// PredictOption it replaces the default plan for one call.
func WithFaults(plan *FaultPlan) Option {
	return dualOption(func(s *predictSettings) { s.faults = plan })
}
