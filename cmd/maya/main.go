// Command maya predicts the performance of Megatron-LM training
// recipes on a cluster, without GPUs. Ctrl-C cancels the in-flight
// work cleanly, including estimator training.
//
// The trace artifact is first-class: capture once, simulate many.
//
//	maya predict  -cluster 32xH100 -model gpt3-18.4b -batch 256 -tp 2 -pp 4 -micro 8
//	maya capture  -cluster 32xH100 -model gpt3-18.4b -batch 256 -tp 2 -pp 4 -micro 8 -o job.mtrace
//	maya simulate -trace job.mtrace
//	maya simulate -trace job.mtrace -oracle
//	maya simulate -trace job.mtrace -actual -flops 1.2e18
//	maya simulate -trace job.mtrace -timeline run.json -breakdown
//
// -timeline records the simulated run at CUDA-API granularity and
// writes a Chrome-trace JSON file: open it in chrome://tracing or
// https://ui.perfetto.dev to see every kernel, collective, stall and
// host stretch per worker and stream. -breakdown attributes each
// worker's idle time (event waits, collective straggler waits,
// host-bound stretches, pipeline bubbles) and prints the table.
//
// Bare flags (no verb) behave like "predict", preserving the old
// interface.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"maya"
	"maya/internal/buildinfo"
	"maya/internal/models"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	args := os.Args[1:]
	verb := "predict"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		verb, args = args[0], args[1:]
	}
	if len(args) > 0 && args[0] == "-version" {
		verb = "version"
	}
	switch verb {
	case "predict":
		runPredict(ctx, args)
	case "capture":
		runCapture(ctx, args)
	case "simulate":
		runSimulate(ctx, args)
	case "version":
		fmt.Println(buildinfo.Get())
	default:
		fmt.Fprintf(os.Stderr, "maya: unknown verb %q (have predict, capture, simulate, version)\n", verb)
		os.Exit(2)
	}
}

// recipeFlags registers the workload/cluster flags shared by predict
// and capture.
type recipeFlags struct {
	cluster   *string
	topology  *string
	model     *string
	batch     *int
	tp        *int
	pp        *int
	micro     *int
	virtual   *int
	seqpar    *bool
	recompute *bool
	distopt   *bool
}

func addRecipeFlags(fs *flag.FlagSet) *recipeFlags {
	return &recipeFlags{
		cluster:   fs.String("cluster", "32xH100", "cluster spec (e.g. 8xV100, 64xH100, 8xA40)"),
		topology:  addTopologyFlag(fs),
		model:     fs.String("model", "gpt3-18.4b", "model preset (gpt3-1.3b/2.7b/18.4b/145.6b, llama2-7b, ...)"),
		batch:     fs.Int("batch", 256, "global batch size (sequences)"),
		tp:        fs.Int("tp", 1, "tensor-parallel degree"),
		pp:        fs.Int("pp", 1, "pipeline-parallel degree"),
		micro:     fs.Int("micro", 1, "number of microbatches"),
		virtual:   fs.Int("virtual", 1, "virtual pipeline stages (interleaving)"),
		seqpar:    fs.Bool("seqpar", false, "sequence parallelism"),
		recompute: fs.Bool("recompute", false, "activation recomputation"),
		distopt:   fs.Bool("distopt", false, "distributed optimizer"),
	}
}

// addTopologyFlag registers the network-fabric spec flag shared by
// every verb that builds a predictor.
func addTopologyFlag(fs *flag.FlagSet) *string {
	return fs.String("topology", "", "network fabric spec: auto (default), flat, rail, oversub:K, pods:K")
}

// build turns the flags into a cluster, workload and model-FLOPs
// count.
func (r *recipeFlags) build() (maya.Cluster, maya.Workload, float64) {
	cluster, err := maya.ClusterByName(*r.cluster)
	fatalIf(err)
	mdl, err := models.ByName(*r.model)
	fatalIf(err)
	cfg := maya.MegatronConfig{
		Model: mdl, NGPUs: cluster.TotalGPUs(), GlobalBatch: *r.batch,
		TP: *r.tp, PP: *r.pp, MicroBatches: *r.micro, VirtualStages: *r.virtual,
		SeqParallel: *r.seqpar, ActRecompute: *r.recompute, DistOptimizer: *r.distopt,
	}
	w, err := maya.NewMegatron(cfg)
	fatalIf(err)
	return cluster, w, mdl.TrainFLOPsPerIter(*r.batch)
}

func runPredict(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya predict", flag.ExitOnError)
	recipe := addRecipeFlags(fs)
	actual := fs.Bool("actual", false, "also measure on the synthetic silicon (ground truth)")
	congestion := fs.Bool("congestion", false, "resolve collectives against link-level contention (concurrent collectives sharing a fabric link split its bandwidth)")
	timeline := fs.String("timeline", "", "write the simulated run as Chrome-trace JSON to this file (chrome://tracing, Perfetto)")
	breakdown := fs.Bool("breakdown", false, "attribute per-worker stall time (event/collective waits, host-bound, pipeline bubbles)")
	asJSON := fs.Bool("json", false, "emit JSON")
	fatalIf(fs.Parse(args))

	cluster, w, flops := recipe.build()
	fmt.Fprintf(os.Stderr, "maya: training estimators for %s (cached after first run)...\n", cluster.Name)
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology(*recipe.topology))
	fatalIf(err)

	// One capture serves both the prediction and the ground-truth
	// measurement: -actual no longer re-pays emulation.
	tr, err := pred.Capture(ctx, w)
	fatalIf(err)
	opts := []maya.PredictOption{maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16)}
	var tl *maya.Timeline
	if *timeline != "" {
		tl = maya.NewTimeline()
		opts = append(opts, maya.WithTimeline(tl))
	}
	if *breakdown {
		opts = append(opts, maya.WithStallBreakdown())
	}
	if *congestion {
		opts = append(opts, maya.WithCongestion())
	}
	rep, err := pred.Simulate(ctx, tr, opts...)
	fatalIf(err)
	writeTimeline(tl, *timeline)
	// The predicted report keeps the full stage breakdown: this run
	// did pay the capture, once.
	cs := tr.CaptureStages()
	rep.Stages.Emulate, rep.Stages.Collate = cs.Emulate, cs.Collate

	out := map[string]any{"predicted": rep}
	if *actual {
		act, err := pred.Simulate(ctx, tr, maya.WithPhysicalReplay(),
			maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
		fatalIf(err)
		out["actual"] = act
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(out))
		return
	}
	fmt.Println(rep)
	printStalls(rep)
	if *actual {
		fmt.Println(out["actual"])
	}
}

// writeTimeline exports a recorded timeline, if one was requested.
func writeTimeline(tl *maya.Timeline, path string) {
	if tl == nil {
		return
	}
	f, err := os.Create(path)
	fatalIf(err)
	err = tl.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: wrote timeline %s (%d events); open in chrome://tracing or ui.perfetto.dev\n", path, tl.Len())
}

// printStalls renders the per-worker stall attribution, if present.
func printStalls(rep *maya.Report) {
	if rep.Stalls == nil {
		return
	}
	fmt.Println("stall breakdown (idle time per worker):")
	fmt.Printf("  %-8s %12s %16s %12s %12s\n", "worker", "event-wait", "collective-wait", "host-bound", "bubble")
	for i, s := range rep.Stalls.Workers {
		fmt.Printf("  %-8d %12s %16s %12s %12s\n", i, s.EventWait, s.CollectiveWait, s.HostBound, s.Bubble)
	}
	t := rep.Stalls.Total()
	fmt.Printf("  %-8s %12s %16s %12s %12s\n", "total", t.EventWait, t.CollectiveWait, t.HostBound, t.Bubble)
}

func runCapture(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya capture", flag.ExitOnError)
	recipe := addRecipeFlags(fs)
	out := fs.String("o", "job.mtrace", "output trace file")
	noDedup := fs.Bool("no-dedup", false, "emulate and keep every rank (required for traces simulated with -faults)")
	fatalIf(fs.Parse(args))

	cluster, w, _ := recipe.build()
	// Capture never trains estimators: it is pure emulate + collate.
	popts := []maya.PredictorOption{maya.WithTopology(*recipe.topology)}
	if *noDedup {
		popts = append(popts, maya.WithoutDedup())
	}
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, popts...)
	fatalIf(err)
	tr, err := pred.Capture(ctx, w)
	fatalIf(err)

	f, err := os.Create(*out)
	fatalIf(err)
	n, err := tr.WriteTo(f)
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: wrote %s (%d bytes): %s\n", *out, n, tr)
}

func runSimulate(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya simulate", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file written by `maya capture` (required)")
	oracle := fs.Bool("oracle", false, "annotate with ground-truth kernel times (Table 3 oracle rows)")
	netsim := fs.Bool("netsim", false, "model collectives with the hierarchical network simulator")
	topology := addTopologyFlag(fs)
	congestion := fs.Bool("congestion", false, "resolve collectives against link-level contention (concurrent collectives sharing a fabric link split its bandwidth)")
	actual := fs.Bool("actual", false, "physical replay with ground truth (MeasureActual equivalent)")
	faultsPath := fs.String("faults", "", "evaluate the fault scenario in this JSON plan (stragglers, fail-stops, resizes, checkpoint schedule); needs a trace captured with -no-dedup")
	flops := fs.Float64("flops", 0, "per-iteration model FLOPs (enables MFU)")
	timeline := fs.String("timeline", "", "write the simulated run as Chrome-trace JSON to this file (chrome://tracing, Perfetto)")
	breakdown := fs.Bool("breakdown", false, "attribute per-worker stall time (event/collective waits, host-bound, pipeline bubbles)")
	asJSON := fs.Bool("json", false, "emit JSON")
	fatalIf(fs.Parse(args))

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "maya simulate: -trace is required")
		os.Exit(2)
	}
	if *netsim && (*oracle || *actual) {
		fmt.Fprintln(os.Stderr, "maya simulate: -netsim plugs into the learned estimators and cannot combine with -oracle or -actual (those annotate every collective with ground truth)")
		os.Exit(2)
	}
	if *faultsPath != "" && *actual {
		fmt.Fprintln(os.Stderr, "maya simulate: -faults applies to simulated predictions; -actual models the silicon, not operational faults")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	fatalIf(err)
	tr, err := maya.ReadTrace(f)
	f.Close()
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: loaded %s\n", tr)

	cluster, err := maya.ClusterByName(tr.Cluster())
	fatalIf(err)
	if *topology == "" {
		// Default to the fabric the trace was captured under.
		*topology = tr.Topology()
	}
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology(*topology))
	fatalIf(err)

	opts := []maya.PredictOption{maya.WithModelFLOPs(*flops), maya.WithDType(maya.BF16)}
	switch {
	case *actual:
		opts = append(opts, maya.WithPhysicalReplay())
	case *oracle:
		opts = append(opts, maya.WithOracleAnnotation())
	default:
		fmt.Fprintf(os.Stderr, "maya: training estimators for %s (cached after first run)...\n", cluster.Name)
	}
	if *netsim {
		opts = append(opts, maya.WithNetSim())
	}
	var tl *maya.Timeline
	if *timeline != "" {
		tl = maya.NewTimeline()
		opts = append(opts, maya.WithTimeline(tl))
	}
	if *breakdown {
		opts = append(opts, maya.WithStallBreakdown())
	}
	if *congestion {
		opts = append(opts, maya.WithCongestion())
	}
	if *faultsPath != "" {
		pf, err := os.Open(*faultsPath)
		fatalIf(err)
		plan, err := maya.ParseFaultPlan(pf)
		pf.Close()
		fatalIf(err)
		opts = append(opts, maya.WithFaults(plan))
	}
	rep, err := pred.Simulate(ctx, tr, opts...)
	fatalIf(err)
	writeTimeline(tl, *timeline)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(rep))
		return
	}
	fmt.Println(rep)
	printStalls(rep)
	printRecovery(rep)
}

// printRecovery renders the fault-scenario evaluation, if present.
func printRecovery(rep *maya.Report) {
	r := rep.Recovery
	if r == nil {
		return
	}
	fmt.Printf("fault scenario (%d iterations, world %d, goodput %.3f):\n", r.Iterations, r.World, r.Goodput)
	fmt.Printf("  %-18s %14s\n", "clean baseline", r.CleanTime)
	if r.PerturbedTime != r.CleanTime {
		fmt.Printf("  %-18s %14s\n", "with stragglers", r.PerturbedTime)
	}
	fmt.Printf("  %-18s %14s\n", "total wall", r.TotalTime)
	if r.CheckpointEvery > 0 {
		fmt.Printf("  %-18s %14s  (%d writes, every %d iters)\n", "checkpoint cost", r.CheckpointOverhead, r.Checkpoints, r.CheckpointEvery)
	}
	if len(r.Failures) > 0 {
		fmt.Printf("  %-18s %14s  detection %s, restore %s, survivor idle %s\n",
			"lost work", r.LostWork, r.Detection, r.Restore, r.SurvivorIdle)
		fmt.Printf("  failures (%d):\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Printf("    rank %-4d at %-14s lost %-12s wedged %d workers\n", f.Rank, f.At, f.LostWork, f.WedgedWorkers)
		}
	}
	for _, rz := range r.Resizes {
		fmt.Printf("  resize at iter %d: %d -> %d workers, reshard %s\n", rz.AtIteration, rz.OldWorld, rz.NewWorld, rz.Reshard)
	}
}

func fatalIf(err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "maya: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "maya:", err)
		os.Exit(1)
	}
}
