package sim

// Engine-level fault injection: the compiled, worker-indexed form of
// a fault scenario (see the faults package for the rank-addressed,
// serializable Plan). An Injection perturbs one run in two ways:
//
//   - SlowWindow entries stretch timed device work (kernels, copies)
//     by a per-worker factor while the op's start time lies inside
//     the window — a straggler is a device that computes slowly, so
//     collective wire times are untouched and the straggler's delay
//     surfaces as collective wait on every other rank, exactly as it
//     does on a real cluster.
//
//   - FailStop freezes one worker at a simulated instant: its host
//     dispatches nothing at or past that time, its streams start no
//     new work, and collectives it never joins wait forever. Work in
//     flight at the instant of death completes (its results were
//     already on the wire or on the device), so the dead worker's
//     frontier is exact, not truncated mid-op. When the event heap
//     drains with workers still blocked, the run reports Halted
//     instead of diagnosing a trace deadlock: the wedge is the
//     scenario, and Report.Wedged holds, per worker, when it began
//     waiting on a collective the dead rank never joined.
//
// Injection checks are nil tests on the dispatch path, made per op
// inside a dispatch chain; a run without an Injection pays nothing.
// All decisions depend only on (worker, simulated time), so injected
// runs preserve the engine's determinism bar: bit-identical reports
// across reruns, pooling and any caller concurrency.

// SlowWindow is one straggler clause: per-worker multiplicative
// slowdown factors applied to timed device ops whose start time t
// satisfies From <= t and (Until == 0 or t < Until). A factor <= 0,
// == 1 or NaN leaves that worker untouched; workers beyond the slice
// are untouched.
type SlowWindow struct {
	Factor []float64
	From   int64
	Until  int64
}

// FailStopAt kills one worker (by engine worker index) at a simulated
// time: fail-stop, not fail-slow — the worker vanishes.
type FailStopAt struct {
	Worker int
	At     int64
}

// Injection is a compiled fault scenario bound to one job's worker
// indexing. The zero value injects nothing; a nil *Injection in
// Options is the fault-free fast path.
type Injection struct {
	Slowdown []SlowWindow
	FailStop *FailStopAt
}

// stretchHorizon is where a stretched op's end saturates instead of
// wrapping; the 2^62 ns above it keep later work off the clock's edge.
const stretchHorizon = 1 << 62

// stretch applies the matching slowdown windows to a device op of
// duration d starting at start on worker w.
func (inj *Injection) stretch(w int, start, d int64) int64 {
	for i := range inj.Slowdown {
		sw := &inj.Slowdown[i]
		if w >= len(sw.Factor) {
			continue
		}
		f := sw.Factor[w]
		if !(f > 0) || f == 1 { // NaN is identity too
			continue
		}
		if start < sw.From || (sw.Until != 0 && start >= sw.Until) {
			continue
		}
		if x := float64(d) * f; x < float64(stretchHorizon-start) {
			d = int64(x)
		} else {
			d = max(d, stretchHorizon-start)
		}
	}
	return d
}

// dead reports whether worker w is failed at time t.
func (inj *Injection) dead(w int, t int64) bool {
	return inj.FailStop != nil && inj.FailStop.Worker == w && t >= inj.FailStop.At
}
