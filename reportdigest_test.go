package maya

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
	"maya/internal/search"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/topo"
	"maya/internal/trace"
	"maya/internal/workload"
)

// reportDigestPath holds one digest per row of TestReportDigests,
// recorded once; it must never be regenerated.
const reportDigestPath = "internal/core/testdata/report-digests.txt"

// digestRow is one pinned digest; its layer ("plan" or "report") is
// the name up to the first slash.
type digestRow struct {
	name   string
	digest uint64
}

// TestReportDigests pins the two layers above a capture. The plan
// layer is every duration of each estimate overlay (learned, oracle,
// netsim) of every capture TestCaptureDigests pins. The report layer
// is every field of a report, stage timings zeroed, with its stall
// breakdown, its recovery report and the Chrome timeline of its run,
// over the simulator's modes: prediction, physical, congestion,
// straggler, fail-stop, MTBF, a run cut at a simulated-clock horizon
// and a search whose trials are cut at the domination bound. A
// mismatch names the first layer and row that differ from
// reportDigestPath.
func TestReportDigests(t *testing.T) {
	rows := append(planDigests(t), reportDigests(t)...)
	want := readCaptureDigests(t, reportDigestPath)
	if len(rows) != len(want) {
		t.Errorf("%d rows, %d recorded", len(rows), len(want))
	}
	var first string
	for _, r := range rows {
		w, ok := want[r.name]
		if ok && w == r.digest {
			continue
		}
		t.Logf("%s %016x", r.name, r.digest)
		if first == "" {
			layer, row, _ := strings.Cut(r.name, "/")
			first = fmt.Sprintf("first difference: %s layer, row %s gives %016x, recorded %016x", layer, row, r.digest, w)
		}
	}
	if first != "" {
		t.Error(first)
	}
}

// planDigests hashes the estimate overlays of each capture of the
// capture digest grid that fits in memory: the learned suite's, the
// oracle's, and the learned suite's with netsim collectives.
func planDigests(t *testing.T) []digestRow {
	t.Helper()
	ctx := context.Background()
	var rows []digestRow
	for _, dc := range captureDigestCases(t) {
		pipe := &core.Pipeline{Cluster: dc.cluster, Opts: core.Options{SelectiveLaunch: true, NoDedup: dc.noDedup}}
		c, err := pipe.Capture(ctx, dc.w)
		if err != nil {
			t.Fatal(err)
		}
		if c.OOM {
			continue
		}
		oracle := core.DefaultOracle(dc.cluster)
		suite, _, err := core.DefaultSuiteCache().SuiteFor(ctx, dc.cluster, oracle, estimator.ProfileLLM)
		if err != nil {
			t.Fatal(err)
		}
		fabric, err := topo.ByName("", dc.cluster)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range []struct {
			name  string
			timer trace.Timer
		}{
			{"learned", suite},
			{"oracle", oracle},
			{"netsim", suite.WithCollectiveEstimator(netsim.NewWithTopology(dc.cluster, fabric))},
		} {
			plan, err := estimator.BuildPlan(ctx, c.Job, c.Comms, c.CommSizes, tm.timer)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, d := range plan.Overlay().Table() {
				binary.Write(h, binary.LittleEndian, int64(d))
			}
			rows = append(rows, digestRow{"plan/" + dc.name + "/" + tm.name, h.Sum64()})
		}
		c.Release()
	}
	return rows
}

// reportDigests hashes the report of one oracle-priced 16-rank capture
// without dedup under each mode, each run with a stall breakdown and a
// timeline attached, then the prefix of a run cut at half its makespan
// and a search whose trials the domination bound cuts.
func reportDigests(t *testing.T) []digestRow {
	t.Helper()
	ctx := context.Background()
	cluster := hardware.DGXH100(2)
	oracle := core.DefaultOracle(cluster)
	tiny := models.Transformer{Name: "tiny", Layers: 4, Hidden: 512, Heads: 8, FFN: 2048, Seq: 256, Vocab: 3200}
	w, err := framework.NewMegatron(framework.MegatronConfig{Model: tiny, NGPUs: 16, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := (&core.Pipeline{Cluster: cluster, Opts: core.Options{NoDedup: true}}).Capture(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	fabric, err := topo.ByName("", cluster)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewWithTopology(cluster, fabric)
	flops := tiny.TrainFLOPsPerIter(16)

	var rows []digestRow
	run := func(name string, physical bool, set func(*core.Options)) *core.Report {
		row, rep := runDigest(t, name, cluster, oracle, c, flops, physical, set)
		rows = append(rows, row)
		return rep
	}
	plain := run("prediction", false, nil)
	run("physical", true, nil)
	// Congestion stretches an annotated duration only while a call
	// shares a link beyond its width, so more comm time than the
	// uncongested run's means some flow was slowed by another.
	congested := run("congestion", false, func(o *core.Options) { o.Congestion = net })
	if congested.CommTime <= plain.CommTime {
		t.Fatalf("no flow slowed by another: comm %v, %v uncongested", congested.CommTime, plain.CommTime)
	}
	iter := plain.IterTime
	withPlan := func(p *faults.Plan) func(*core.Options) { return func(o *core.Options) { o.Faults = p } }
	run("straggler", false, withPlan(&faults.Plan{
		Stragglers: []faults.Straggler{{Ranks: []int{3}, Factor: 1.5}},
	}))
	run("fail-stop", false, withPlan(&faults.Plan{
		CheckpointEvery: 2, CheckpointCost: iter / 20, Detect: iter / 4, Restore: iter / 8, Iterations: 8,
		Failures: []faults.FailStop{{Rank: 5, At: 2*iter + iter/2}},
	}))
	run("mtbf", false, withPlan(&faults.Plan{
		Seed: 3, MTBF: 4 * iter, CheckpointEvery: 4, CheckpointCost: iter / 20, Detect: iter / 4, Restore: iter / 8,
		Iterations: 20,
	}))

	rows = append(rows, truncatedDigest(t, c, oracle))
	rows = append(rows, dominatedDigest(t, cluster, tiny, oracle, net))
	// The grid's interleaved and dualpipe programs train tiny at a
	// global batch of 16 too.
	return append(rows, outOfOrderDigests(t, flops)...)
}

// runDigest runs c on cluster, priced by oracle with a stall breakdown
// and a timeline attached, as a prediction or (physical) a
// measurement, with the options set adjusts. It hashes every report
// field, stage timings zeroed, then the stalls, the recovery and the
// timeline.
func runDigest(t *testing.T, name string, cluster hardware.Cluster, oracle *silicon.Oracle, c *core.Capture, flops float64, physical bool, set func(*core.Options)) (digestRow, *core.Report) {
	t.Helper()
	ctx := context.Background()
	tl := sim.NewTimeline()
	pipe := &core.Pipeline{Cluster: cluster, Opts: core.Options{NoDedup: true, Oracle: oracle, Breakdown: true, Observer: tl}}
	if set != nil {
		set(&pipe.Opts)
	}
	var rep *core.Report
	var err error
	if physical {
		rep, err = pipe.Measure(ctx, c, oracle, flops, hardware.BF16)
	} else {
		rep, err = pipe.Simulate(ctx, c, flops, hardware.BF16)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	r := *rep
	r.Stages, r.Stalls, r.Recovery = core.StageTimings{}, nil, nil
	fmt.Fprintf(h, "%+v|", r)
	if rep.Stalls != nil {
		fmt.Fprintf(h, "stalls %+v|", *rep.Stalls)
	}
	if rep.Recovery != nil {
		fmt.Fprintf(h, "recovery %+v|", *rep.Recovery)
	}
	hashTimeline(t, h, tl)
	return digestRow{"report/" + name, h.Sum64()}, rep
}

// outOfOrderDigests hashes the prediction of the capture digest
// grid's interleaved and dualpipe programs, captured without dedup.
// In both, some point-to-point direction's calls match out of issue
// order: a replay must pair a send with its receive by tag, and one
// that paired them by issue order would change these rows.
func outOfOrderDigests(t *testing.T, flops float64) []digestRow {
	t.Helper()
	var rows []digestRow
	for _, dc := range captureDigestCases(t) {
		name, ok := strings.CutPrefix(dc.name, "megatron/")
		if !ok || name != "interleaved" && name != "dualpipe" {
			continue
		}
		c, err := (&core.Pipeline{Cluster: dc.cluster, Opts: core.Options{NoDedup: true}}).Capture(context.Background(), dc.w)
		if err != nil {
			t.Fatal(err)
		}
		n := outOfIssueOrder(c.Job)
		if n == 0 {
			t.Fatalf("%s: every group's calls carry the same tags in the same order on all its workers", dc.name)
		}
		t.Logf("%s: %d groups whose calls differ in order across workers", dc.name, n)
		row, _ := runDigest(t, name, dc.cluster, core.DefaultOracle(dc.cluster), c, flops, false, nil)
		rows = append(rows, row)
		c.Release()
	}
	if len(rows) != 2 {
		t.Fatalf("%d out-of-order rows, want the grid's interleaved and dualpipe", len(rows))
	}
	return rows
}

// outOfIssueOrder counts the collective groups (a communicator, and
// for point-to-point calls one direction of one pair) in which some
// worker's k-th call carries a different tag from another worker's.
func outOfIssueOrder(job *trace.Job) int {
	tags := map[trace.CollKey]map[int][]int{}
	for _, w := range job.Workers {
		for i := range w.Ops {
			op := &w.Ops[i]
			if op.Kind != trace.KindCollective || op.Coll.Seq < 0 {
				continue
			}
			k := trace.CollKeyOf(op)
			k.Seq = 0
			if tags[k] == nil {
				tags[k] = map[int][]int{}
			}
			tags[k][w.Rank] = append(tags[k][w.Rank], op.Coll.Seq)
		}
	}
	n := 0
	for _, byWorker := range tags {
		var first []int
		for _, seqs := range byWorker {
			if first == nil {
				first = seqs
			} else if m := min(len(first), len(seqs)); !slices.Equal(first[:m], seqs[:m]) {
				n++
				break
			}
		}
	}
	return n
}

// truncatedDigest hashes the report, stall breakdown and timeline of
// the capture's oracle-priced run cut at half its makespan.
func truncatedDigest(t *testing.T, c *core.Capture, oracle trace.Timer) digestRow {
	t.Helper()
	ctx := context.Background()
	plan, err := estimator.BuildPlan(ctx, c.Job, c.Comms, c.CommSizes, oracle)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Index: sim.Compile(c.Job, nil), Annotations: plan.Overlay()}
	full, err := sim.Run(ctx, c.Job, opts)
	if err != nil {
		t.Fatal(err)
	}
	tl, bd := sim.NewTimeline(), sim.NewBreakdown()
	opts.Observer, opts.TimeLimit = sim.Observers(tl, bd), full.Makespan/2
	sr, err := sim.Run(ctx, c.Job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Truncated {
		t.Fatal("a run cut at half its makespan is not truncated")
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|stalls %+v|", *sr, bd.Result(sr))
	hashTimeline(t, h, tl)
	return digestRow{"report/time-limit", h.Sum64()}
}

// dominatedDigest hashes a congested, oracle-priced recipe search on
// one engine, some of whose trials the domination bound cuts: the
// whole history, the counters and the timeline of every trial's run.
func dominatedDigest(t *testing.T, cluster hardware.Cluster, model models.Transformer, oracle *silicon.Oracle, net *netsim.Model) digestRow {
	t.Helper()
	tl := sim.NewTimeline()
	p := &core.Pipeline{Cluster: cluster, Opts: core.Options{SelectiveLaunch: true, Oracle: oracle, Congestion: net, Observer: tl}}
	problem := search.Problem{Model: model, Cluster: cluster, GlobalBatch: 16}
	opts := search.Options{Budget: 16, Parallel: 1, Seed: 7, EarlyStopWindow: -1}
	out, err := p.Search(context.Background(), problem, func(ctx context.Context, w workload.Workload) (*core.Capture, error) {
		return p.Capture(ctx, w)
	}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Dominated == 0 {
		t.Fatalf("no trial dominated: %+v", out.Stats)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%s|", out.Stats, out.Stopped)
	for _, r := range out.History {
		fmt.Fprintf(h, "%+v|", *r)
	}
	hashTimeline(t, h, tl)
	return digestRow{"report/domination-bound", h.Sum64()}
}

// hashTimeline writes the timeline's Chrome trace into h.
func hashTimeline(t *testing.T, h hash.Hash64, tl *sim.Timeline) {
	t.Helper()
	if err := tl.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
}
