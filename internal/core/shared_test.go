package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"maya/internal/faults"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/trace"
)

// noDedupCapture captures the plan tests' recipe with every rank
// emulated and simulated, as fault plans need.
func noDedupCapture(t *testing.T) (*Pipeline, *Capture) {
	t.Helper()
	p, _ := pipelineFor(t, hardware.DGXV100(1), Options{NoDedup: true})
	c, err := p.Capture(context.Background(), megatron(t, framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	}))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return p, c
}

// directReplay is Pipeline.replay through sim.Run, which compiles the
// job afresh on every call and counts joins from an explicit
// trace.Participation map, not the nil map the product passes: the
// reference a replay on the capture's shared index must equal.
func directReplay(ctx context.Context, c *Capture, p *Pipeline, timer trace.Timer, physical bool) (*Report, error) {
	plan, err := c.planFor(ctx, timer)
	if err != nil {
		return nil, err
	}
	o := sim.Options{}
	fp := p.Opts.Faults
	if physical {
		o, fp = silicon.PhysicalOptions(p.Opts.Seed), nil
	} else if p.Opts.Congestion != nil {
		if o.Congestion, err = c.congestionFor(ctx, p.Opts.Congestion); err != nil {
			return nil, err
		}
	}
	o.Participants, o.Annotations = trace.Participation(c.Job), plan.Overlay()
	if fp != nil {
		if o.Faults, err = fp.Injection(c.Job); err != nil {
			return nil, err
		}
	}
	sr, err := sim.Run(ctx, c.Job, o)
	if err != nil {
		return nil, err
	}
	rep := c.baseReport()
	if fp != nil {
		run := func(rctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error) {
			r := o
			r.Faults, r.Observer = inj, obs
			return sim.Run(rctx, c.Job, r)
		}
		if rep.Recovery, err = faults.Evaluate(ctx, fp, c.Job, sr, run); err != nil {
			return nil, err
		}
	}
	rep.Truncated = sr.Truncated
	p.fill(rep, sr, 0, hardware.BF16)
	return rep, nil
}

// TestConcurrentReplaysShareOnePlanAndIndex replays one no-dedup
// capture five ways from eight goroutines at once — learned, oracle,
// Measure, congestion and a fault plan — every replay reading the
// capture's one compiled index and its plans' overlays in place. Each
// report must equal its variant's serial report and the report of
// sim.Run compiling the job afresh, the capture must keep its index,
// and no plan's table may change. CI runs it under -race -count=5.
func TestConcurrentReplaysShareOnePlanAndIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	ctx := context.Background()
	p, c := noDedupCapture(t)
	base, err := p.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	oracle := DefaultOracle(p.Cluster)
	with := func(o Options) *Pipeline {
		o.NoDedup = true
		return &Pipeline{Cluster: p.Cluster, Suite: p.Suite, Opts: o}
	}
	plan := &faults.Plan{
		CheckpointEvery: 1,
		CheckpointCost:  base.IterTime / 10,
		Detect:          base.IterTime / 2,
		Restore:         base.IterTime / 4,
		Iterations:      8,
		Stragglers:      []faults.Straggler{{Ranks: []int{1}, Factor: 1.5}},
		Failures:        []faults.FailStop{{Rank: 3, At: 3 * base.IterTime}},
	}
	variants := []struct {
		name     string
		pipe     *Pipeline
		timer    trace.Timer
		physical bool
	}{
		{"learned", with(Options{}), p.Suite, false},
		{"oracle", with(Options{Oracle: oracle}), oracle, false},
		{"measure", with(Options{}), oracle, true},
		{"congestion", with(Options{Congestion: netsim.New(p.Cluster)}), p.Suite, false},
		{"faults", with(Options{Faults: plan}), p.Suite, false},
	}
	replay := func(i int) (*Report, error) {
		v := variants[i]
		if v.physical {
			return v.pipe.Measure(ctx, c, oracle, 0, hardware.BF16)
		}
		return v.pipe.Simulate(ctx, c, 0, hardware.BF16)
	}

	serial := make([]*Report, len(variants))
	for i, v := range variants {
		if serial[i], err = replay(i); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		ref, err := directReplay(ctx, c, v.pipe, v.timer, v.physical)
		if err != nil {
			t.Fatalf("%s reference: %v", v.name, err)
		}
		if !reflect.DeepEqual(zeroStages(serial[i]), zeroStages(ref)) {
			t.Fatalf("%s: replay on the capture's index differs from sim.Run compiling its own:\n got %+v\nwant %+v",
				v.name, zeroStages(serial[i]), zeroStages(ref))
		}
	}
	index := c.simIndex()
	var tables [][]time.Duration
	for _, timer := range []trace.Timer{p.Suite, oracle} {
		pl, err := c.planFor(ctx, timer)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, slices.Clone(pl.Overlay().Table()))
	}

	const n = 8
	got := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = replay(g % len(variants))
		}()
	}
	wg.Wait()
	for g := range n {
		v := g % len(variants)
		if errs[g] != nil {
			t.Fatalf("concurrent %s: %v", variants[v].name, errs[g])
		}
		if !reflect.DeepEqual(zeroStages(got[g]), zeroStages(serial[v])) {
			t.Fatalf("concurrent %s diverged from its serial replay:\n got %+v\nwant %+v",
				variants[v].name, zeroStages(got[g]), zeroStages(serial[v]))
		}
	}
	if c.simIndex() != index {
		t.Fatal("the capture compiled its job a second time")
	}
	for i, timer := range []trace.Timer{p.Suite, oracle} {
		pl, _ := c.planFor(ctx, timer)
		if !slices.Equal(pl.Overlay().Table(), tables[i]) {
			t.Fatalf("plan %d: replays wrote its table", i)
		}
	}
}

// TestPhysicalWithoutKnobsIsOracleReplay is a metamorphic law on the
// plan tests' capture: JitterFrac and CommContention are all that
// silicon.PhysicalOptions adds to an oracle prediction, so with both
// zeroed a physical replay is the oracle replay, field for field.
func TestPhysicalWithoutKnobsIsOracleReplay(t *testing.T) {
	p, c := learnedCapture(t)
	ctx := context.Background()
	oracle := DefaultOracle(p.Cluster)
	po := &Pipeline{Cluster: p.Cluster, Opts: Options{Oracle: oracle}}
	want, err := po.Simulate(ctx, c, 1e15, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.planFor(ctx, oracle)
	if err != nil {
		t.Fatal(err)
	}
	o := silicon.PhysicalOptions(po.Opts.Seed)
	o.JitterFrac, o.CommContention = 0, 0
	o.Index, o.Annotations = c.simIndex(), plan.Overlay()
	sr, err := sim.Run(ctx, c.Job, o)
	if err != nil {
		t.Fatal(err)
	}
	got := c.baseReport()
	po.fill(got, sr, 1e15, hardware.BF16)
	if !reflect.DeepEqual(zeroStages(got), zeroStages(want)) {
		t.Fatalf("physical replay without jitter or contention:\n got %+v\nwant the oracle replay %+v",
			zeroStages(got), zeroStages(want))
	}
}

// TestEmptyFaultPlanKeepsEveryTiming is a metamorphic law on the plan
// tests' recipe captured without dedup: an empty fault plan adds a
// recovery report and changes no timing field.
func TestEmptyFaultPlanKeepsEveryTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	ctx := context.Background()
	p, c := noDedupCapture(t)
	clean, err := p.Simulate(ctx, c, 1e15, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	pf := &Pipeline{Cluster: p.Cluster, Suite: p.Suite, Opts: Options{NoDedup: true, Faults: &faults.Plan{}}}
	got, err := pf.Simulate(ctx, c, 1e15, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery == nil {
		t.Fatal("an empty fault plan returned no recovery report")
	}
	got.Recovery = nil
	if !reflect.DeepEqual(zeroStages(got), zeroStages(clean)) {
		t.Fatalf("an empty fault plan changed the report:\n got %+v\nwant %+v", zeroStages(got), zeroStages(clean))
	}
}
