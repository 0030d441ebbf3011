package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maya/internal/core"
)

// config is one benchmark run: a workload, the seed its inputs are
// generated from, how long to measure, and whether this is the traced
// (per-layer) or the untraced (end-to-end) run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few ops for the smoke test:
	// same code paths, no meaningful timings.
	tiny bool
	// traceOut is where the traced run writes its spans.
	traceOut string
}

// setupReps is how often a run repeats the workload's whole set-up;
// setup_s is the median of the repetitions and the last instance
// serves the timed pass.
func (c config) setupReps() int {
	if c.tiny {
		return 1
	}
	return 3
}

// opOutcome is what one op hands back to the harness.
type opOutcome struct {
	// hash fingerprints the program's answer; it must equal the
	// reference the untimed check pass computed for this op.
	hash uint64
	// class names the latency class the op fell into (a replay
	// variant, a cache hit or miss, ...) for the p50/p90 mix rule.
	class string
	// stages are the stage timings the program reported for the op,
	// when its answer carries them.
	stages core.StageTimings
}

// workload is one of the benchmark's four load generators. The
// harness owns timing, repetition and accounting; a workload owns
// its inputs (all derived from the seed) and what one op is.
type workload interface {
	// build constructs a fresh instance of the system under test and
	// everything the ops need before the warm cycles: predictors,
	// trained suites, servers, pre-captured traces. It returns how
	// long estimator training took.
	build(ctx context.Context) (train time.Duration, err error)
	// close releases what build made.
	close()
	// warmCycles is how many untimed cycles complete the set-up.
	warmCycles() int
	// numOps is the length of the op list one cycle runs.
	numOps() int
	// callers is the number of closed-loop callers issuing ops.
	callers() int
	// beginTimed is called once, after the set-up and the check pass
	// and before the first timed op: the point counters are read from.
	beginTimed()
	// do runs op i of the cycle. parent is the op's span.
	do(ctx context.Context, i int, tr *tracer, parent, opID int) (opOutcome, error)
	// check is the untimed verification pass: it returns the
	// reference hash of every op, the prediction error against the
	// silicon oracle in percent, and fails on any broken equivalence.
	check(ctx context.Context) (refs []uint64, predErrPct float64, err error)
	// layers measures the layers this workload is the home of and
	// stores their metrics; traced runs only.
	layers(ctx context.Context, m metrics, tr *tracer) error
}

// decomposer is a workload that can re-execute an op layer by layer
// beside the call it decomposes; the traced pass calls it after each
// op, outside the op's latency.
type decomposer interface {
	decompose(ctx context.Context, i int, tr *tracer, opID int) error
}

// sample is one completed op of a timed pass.
type sample struct {
	lat   time.Duration
	class string
}

// pass is the record of one timed pass: every sample, the cycle
// boundaries, the process counters around it and the failures.
type pass struct {
	samples  []sample
	cycleEnd []int   // sample count at the end of each cycle
	marks    []usage // process counters at the end of each cycle
	begin    usage
	end      usage
	failed   int
	firstErr error
	stages   core.StageTimings
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// runCycle runs the workload's op list once with its closed-loop
// callers and appends the samples to the pass. refs may be nil (warm
// cycles): answers are then only checked for errors.
func runCycle(ctx context.Context, w workload, refs []uint64, tr *tracer, p *pass, opBase int) {
	n, callers := w.numOps(), w.callers()
	var next atomic.Int64
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		p.fail(err)
		mu.Unlock()
	}
	one := func() {
		var local []sample
		var stages core.StageTimings
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			opID := opBase + i
			id := tr.start("op", 0, opID)
			t0 := time.Now()
			out, err := w.do(ctx, i, tr, id, opID)
			lat := time.Since(t0)
			tr.end(id)
			switch {
			case err != nil:
				fail(fmt.Errorf("op %d: %w", i, err))
			case refs != nil && out.hash != refs[i]:
				fail(fmt.Errorf("op %d: answer %016x differs from the reference %016x", i, out.hash, refs[i]))
			}
			local = append(local, sample{lat: lat, class: out.class})
			addStages(&stages, out.stages)
			if d, ok := w.(decomposer); ok && tr != nil {
				if err := d.decompose(ctx, i, tr, opID); err != nil {
					fail(fmt.Errorf("op %d ladder: %w", i, err))
				}
			}
		}
		mu.Lock()
		p.samples = append(p.samples, local...)
		addStages(&p.stages, stages)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one()
		}()
	}
	wg.Wait()
	p.cycleEnd = append(p.cycleEnd, len(p.samples))
	p.marks = append(p.marks, readUsage(true))
}

func addStages(sum *core.StageTimings, s core.StageTimings) {
	sum.Emulate += s.Emulate
	sum.Collate += s.Collate
	sum.Estimate += s.Estimate
	sum.Simulate += s.Simulate
}

// runPass cycles the op list until the pass has measured for the
// given time and holds at least minOps samples, always finishing the
// cycle it is in, so every pass runs a whole number of identical
// cycles and per-op averages compare exactly between runs.
func runPass(ctx context.Context, w workload, refs []uint64, seconds float64, minOps int, tr *tracer) *pass {
	p := &pass{}
	// Two collections empty every sync.Pool (the first only moves a
	// pool's content to its victim cache): each pass starts from a
	// collected heap and cold pools, whatever ran before it.
	runtime.GC()
	runtime.GC()
	p.begin = readUsage(true)
	for c := 0; ; c++ {
		runCycle(ctx, w, refs, tr, p, c*w.numOps())
		if (time.Since(p.begin.wall).Seconds() >= seconds && len(p.samples) >= minOps) || ctx.Err() != nil {
			break
		}
	}
	p.end = readUsage(true)
	return p
}

// segment is one of the three contiguous thirds of a pass.
type segment struct {
	opsPerS, p50, p90, cpuPerOp float64
}

// segments splits the pass's cycles into up to three contiguous
// groups and measures each; an end-to-end timing is the median of the
// three values, so one third disturbed by the host does not move it.
func (p *pass) segments() []segment {
	k := min(3, len(p.cycleEnd))
	var out []segment
	prevMark, prevN := p.begin, 0
	for s := 1; s <= k; s++ {
		c := s*len(p.cycleEnd)/k - 1
		mark, n := p.marks[c], p.cycleEnd[c]
		ops := p.samples[prevN:n]
		lats := make([]time.Duration, len(ops))
		for i := range ops {
			lats[i] = ops[i].lat
		}
		wall := mark.wall.Sub(prevMark.wall).Seconds()
		out = append(out, segment{
			opsPerS:  float64(len(ops)) / wall,
			p50:      quantileMS(lats, 0.50),
			p90:      quantileMS(lats, 0.90),
			cpuPerOp: ms(mark.cpu()-prevMark.cpu()) / float64(len(ops)),
		})
		prevMark, prevN = mark, n
	}
	return out
}

// allocMBPerOp is what the pass allocated per op over its first
// minTimedOps ops (whole cycles). Pooled engines and overlays grow to
// the largest job they have met, so from the cold pools a pass starts
// with, cycles allocate less and less; a figure over the whole pass
// would depend on how many cycles the host's speed let it run, and
// every run has this prefix.
func (p *pass) allocMBPerOp() float64 {
	c := 0
	for c < len(p.cycleEnd)-1 && p.cycleEnd[c] < minTimedOps {
		c++
	}
	return float64(p.marks[c].totalAlloc-p.begin.totalAlloc) / 1e6 / float64(p.cycleEnd[c])
}

// modeShare reports the most common class among the samples whose
// latency rank lies in [lo, hi] of the pass, and its share of them.
// The mix rule wants the p50 and p90 samples inside one class's
// distribution: a window split between classes means the percentile
// sits on a boundary and moves with the mix, not with the program.
func (p *pass) modeShare(lo, hi float64) (string, float64) {
	s := append([]sample(nil), p.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].lat < s[j].lat })
	a, b := quantileIdx(len(s), lo), quantileIdx(len(s), hi)
	counts := map[string]int{}
	for _, x := range s[a : b+1] {
		counts[x.class]++
	}
	best, n := "", 0
	for c, k := range counts {
		if k > n || (k == n && c < best) {
			best, n = c, k
		}
	}
	return best, float64(n) / float64(b+1-a)
}

// classes reports each class's median latency and share of the ops.
func (p *pass) classes() (p50, share map[string]float64) {
	by := map[string][]time.Duration{}
	for _, s := range p.samples {
		by[s.class] = append(by[s.class], s.lat)
	}
	p50, share = map[string]float64{}, map[string]float64{}
	for c, lats := range by {
		p50[c] = quantileMS(lats, 0.5)
		share[c] = float64(len(lats)) / float64(len(p.samples))
	}
	return p50, share
}

func (p *pass) meanLatMS() float64 {
	var sum time.Duration
	for _, s := range p.samples {
		sum += s.lat
	}
	return ms(sum) / float64(len(p.samples))
}

// result is everything one run reports.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"result_digest"`
	P50Class  string  `json:"p50_class"`
	P50Share  float64 `json:"p50_mode_share"`
	P90Class  string  `json:"p90_class"`
	P90Share  float64 `json:"p90_mode_share"`
	// ClassP50MS is the median latency of each class in the timed pass,
	// with its share of the ops: what the mix rule's classes look like.
	ClassP50MS map[string]float64 `json:"class_p50_ms"`
	ClassShare map[string]float64 `json:"class_share"`
	Error      string             `json:"error,omitempty"`
	Metrics    metrics            `json:"metrics"`
}

// minTimedOps is the least number of timed ops an untraced run
// reports on.
const minTimedOps = 120

// minModeShare is the mix rule's threshold: at least this share of
// the samples around p50, and around p90, must come from one class.
const minModeShare = 0.5

// runWorkload is one whole benchmark run.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: metrics{}}

	// Set-up, repeated: construction, estimator training, pre-captures
	// and the cache-filling warm cycles all count.
	var setups, trains []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if rep > 0 {
			w.close()
		}
		t0 := time.Now()
		train, err := w.build(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := &pass{}
		for c := 0; c < w.warmCycles(); c++ {
			runCycle(ctx, w, nil, nil, warm, 0)
		}
		if warm.firstErr != nil {
			return nil, fmt.Errorf("set-up warm cycle: %w", warm.firstErr)
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, ms(train))
	}
	defer w.close()

	refs, predErr, err := w.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("check pass: %w", err)
	}
	res.Digest = fmt.Sprintf("%016x", hashAll(refs))

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	w.beginTimed()
	// An untraced run keeps going past its time, if it must, until it
	// has the samples op_p90_ms needs: ten beyond the percentile.
	minOps := 0
	if !cfg.trace && !cfg.tiny {
		minOps = minTimedOps
	}
	timed := runPass(ctx, w, refs, seconds, minOps, nil)
	res.Attempted, res.Failed = len(timed.samples), timed.failed
	firstErr := timed.firstErr

	res.P50Class, res.P50Share = timed.modeShare(0.48, 0.52)
	res.P90Class, res.P90Share = timed.modeShare(0.88, 0.92)
	res.ClassP50MS, res.ClassShare = timed.classes()

	if !cfg.trace {
		var ops, p50, p90, cpu []float64
		for _, s := range timed.segments() {
			ops, p50, p90, cpu = append(ops, s.opsPerS), append(p50, s.p50), append(p90, s.p90), append(cpu, s.cpuPerOp)
		}
		res.Metrics.set("ops_per_s", median(ops))
		res.Metrics.set("op_p50_ms", median(p50))
		res.Metrics.set("op_p90_ms", median(p90))
		res.Metrics.set("cpu_ms_per_op", median(cpu))
		res.Metrics.set("alloc_mb_per_op", timed.allocMBPerOp())
		res.Metrics.set("pred_err_pct", predErr)
		res.Metrics.set("setup_s", median(setups))
	} else {
		tr := newTracer()
		traced := runPass(ctx, w, refs, seconds, 0, tr)
		res.Attempted += len(traced.samples)
		res.Failed += traced.failed
		if firstErr == nil {
			firstErr = traced.firstErr
		}
		m := res.Metrics
		for _, def := range layerMetrics {
			m[def.name] = metricValue{Unit: def.unit}
		}
		if err := w.layers(ctx, m, tr); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		m.set("forest.train_suite_ms", median(trains))
		n := float64(len(timed.samples))
		wall := timed.end.wall.Sub(timed.begin.wall)
		cpu := timed.end.cpu() - timed.begin.cpu()
		m.set("runtime.gc_per_op", float64(timed.end.numGC-timed.begin.numGC)/n)
		m.set("runtime.sys_cpu_frac", float64(timed.end.sys-timed.begin.sys)/float64(cpu))
		m.set("runtime.minor_faults_per_op", float64(timed.end.minFlt-timed.begin.minFlt)/n)
		m.set("runtime.peak_rss_mb", float64(timed.end.maxRSSKB)/1024)
		// Share of the timed pass's wall-clock (times callers) that the
		// program itself reported spending in each pipeline stage.
		busy := float64(wall) * float64(w.callers())
		m.set("stage.emulate_frac", float64(timed.stages.Emulate)/busy)
		m.set("stage.collate_frac", float64(timed.stages.Collate)/busy)
		m.set("stage.estimate_frac", float64(timed.stages.Estimate)/busy)
		m.set("stage.simulate_frac", float64(timed.stages.Simulate)/busy)
		m.set("bench.trace_overhead_frac", traced.meanLatMS()/timed.meanLatMS()-1)
		m.set("bench.p50_mode_share", res.P50Share)
		m.set("bench.p90_mode_share", res.P90Share)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	switch {
	case firstErr != nil:
		res.Error = firstErr.Error()
	case res.P50Share < minModeShare || res.P90Share < minModeShare:
		res.Error = fmt.Sprintf("mix rule: the samples around p50 are %.0f%% %s and around p90 %.0f%% %s; a percentile sits on a class boundary",
			100*res.P50Share, res.P50Class, 100*res.P90Share, res.P90Class)
	}
	res.Correct = res.Error == ""
	return res, nil
}

// report prints the run for a human on stderr.
func (r *result) report(defs []metricDef) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d: attempted %d failed %d result_digest %s; samples around p50 are %.0f%% %s, around p90 %.0f%% %s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Digest, 100*r.P50Share, r.P50Class, 100*r.P90Share, r.P90Class)
	classes := make([]string, 0, len(r.ClassP50MS))
	for c := range r.ClassP50MS {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return r.ClassP50MS[classes[i]] < r.ClassP50MS[classes[j]] })
	for _, c := range classes {
		fmt.Fprintf(os.Stderr, "  class %-12s %5.1f%% of ops, p50 %.4g ms\n", c, 100*r.ClassShare[c], r.ClassP50MS[c])
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", r.Error)
	}
}
