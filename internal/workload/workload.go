// Package workload defines the contract between training programs
// and Maya's pipeline: a Workload is ordinary code that drives the
// device API for each rank. The same Run method executes under the
// transparent emulator (prediction), the profiler and the synthetic
// silicon (measurement) — transparency means the workload cannot
// tell the difference.
//
// A capture skips redundant ranks on one of the paper's two routes:
// a SelectiveLauncher names its unique ranks (§7.4), and any other
// workload runs its Probe (or itself) on every rank, after which
// workers that do the same work merge (§4.2).
package workload

import "maya/internal/cuda"

// Workload is one distributed training job.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// World returns the number of ranks (devices) in the job.
	World() int
	// Run executes the rank's training program against the device.
	// It is called once per rank, in any order, possibly concurrently
	// with other ranks.
	Run(rank int, dev cuda.Device) error
}

// SelectiveLauncher is implemented by workloads that can name, ahead
// of execution, a representative subset of ranks whose traces cover
// all distinct behaviors — Maya's hyperscale optimization (§7.4).
// This requires explicit workload knowledge (e.g. the Megatron rank
// layout), and the claim is trusted, not checked; workloads without it
// are probed on every rank and deduplicated.
type SelectiveLauncher interface {
	Workload
	// UniqueRanks returns representative ranks in ascending order.
	UniqueRanks() []int
}

// Prober is implemented by workloads that can produce a cheap
// single-iteration variant of themselves. Deduplication emulates the
// probe on every rank to discover duplicate groups, then
// runs the full workload only on unique representatives — the paper's
// "profile all workers for one iteration, terminate redundant ones"
// flow.
type Prober interface {
	Workload
	// Probe returns a one-iteration variant of the workload.
	Probe() Workload
}

// Fingerprinter is implemented by workloads whose captured structure
// is a pure function of a describable configuration, enabling capture
// caching across calls: two workloads with equal fingerprints produce
// identical traces when emulated on the same cluster with the same
// capture options.
type Fingerprinter interface {
	Workload
	// Fingerprint returns a canonical description of everything that
	// shapes the workload's emulated trace (model geometry, degrees,
	// schedule knobs, precision, iteration count). It must change
	// whenever the captured trace would.
	Fingerprint() string
}

// GroupAware is implemented by workloads that can enumerate their
// communicator groups from configuration alone — the explicit
// workload knowledge Maya's selective launch relies on to recover
// collective topology without emulating every member (§7.4).
type GroupAware interface {
	Workload
	// CommGroups maps every communicator's unique ID to the global
	// ranks of its members, ordered by communicator rank.
	CommGroups() map[uint64][]int
}

// Func adapts a function to a single-purpose Workload.
type Func struct {
	JobName string
	Ranks   int
	Body    func(rank int, dev cuda.Device) error
}

// Name implements Workload.
func (f Func) Name() string { return f.JobName }

// World implements Workload.
func (f Func) World() int { return f.Ranks }

// Run implements Workload.
func (f Func) Run(rank int, dev cuda.Device) error { return f.Body(rank, dev) }
