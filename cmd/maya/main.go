// Command maya predicts the performance of Megatron-LM training
// recipes on a cluster, without GPUs, searches for the best recipe,
// and regenerates the paper's tables and figures. Ctrl-C cancels the
// in-flight work cleanly, including estimator training; an
// interrupted search prints the best recipe found so far.
//
// The trace artifact is first-class: capture once, simulate many.
//
//	maya predict  -cluster 32xH100 -model gpt3-18.4b -batch 256 -tp 2 -pp 4 -micro 8
//	maya capture  -cluster 32xH100 -model gpt3-18.4b -batch 256 -tp 2 -pp 4 -micro 8 -o job.mtrace
//	maya simulate -trace job.mtrace
//	maya simulate -trace job.mtrace -actual -flops 1.2e18
//	maya simulate -trace job.mtrace -timeline run.json -breakdown
//	maya search   -cluster 64xH100 -model gpt3-18.4b -batch 256 -algo cma -budget 400
//	maya experiments -list
//	maya experiments -exp fig7
//	maya version
//
// -timeline writes the simulated run, every kernel, collective, stall
// and host stretch, as Chrome-trace JSON (chrome://tracing, Perfetto);
// -breakdown prints each worker's idle time by cause.
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
	"maya/internal/experiments"
	"maya/internal/models"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var verb string
	args := os.Args[1:]
	if len(args) > 0 {
		verb, args = args[0], args[1:]
	}
	switch verb {
	case "predict":
		runPredict(ctx, args)
	case "capture":
		runCapture(ctx, args)
	case "simulate":
		runSimulate(ctx, args)
	case "search":
		runSearch(ctx, args)
	case "experiments":
		runExperiments(ctx, args)
	case "version", "-version":
		fmt.Println(buildinfo.Get())
	default:
		exitUsage("maya: unknown verb %q (have predict, capture, simulate, search, experiments, version)", verb)
	}
}

// problemFlags name a training problem: the cluster and its fabric,
// the model and the global batch. Predict, capture and search share
// them.
type problemFlags struct {
	cluster, topology, model string
	batch                    int
}

func addProblemFlags(fs *flag.FlagSet) *problemFlags {
	f := &problemFlags{}
	fs.StringVar(&f.cluster, "cluster", "32xH100", "cluster spec (e.g. 8xV100, 64xH100, 8xA40)")
	addTopologyFlag(fs, &f.topology)
	fs.StringVar(&f.model, "model", "gpt3-18.4b", "model preset (gpt3-1.3b/2.7b/18.4b/145.6b, llama2-7b, ...)")
	fs.IntVar(&f.batch, "batch", 256, "global batch size (sequences)")
	return f
}

// addTopologyFlag registers the network-fabric spec flag of every verb
// that builds a predictor.
func addTopologyFlag(fs *flag.FlagSet, spec *string) {
	fs.StringVar(spec, "topology", "", "network fabric spec: auto (default), flat, rail, oversub:K, pods:K")
}

// resolve looks up the cluster and the model.
func (f *problemFlags) resolve() (maya.Cluster, models.Transformer) {
	cluster, err := maya.ClusterByName(f.cluster)
	fatalIf(err)
	mdl, err := models.ByName(f.model)
	fatalIf(err)
	return cluster, mdl
}

// recipeFlags are a problem plus the Megatron knobs that make it one
// recipe; predict and capture share them.
type recipeFlags struct {
	*problemFlags
	cfg maya.MegatronConfig
}

func addRecipeFlags(fs *flag.FlagSet) *recipeFlags {
	r := &recipeFlags{problemFlags: addProblemFlags(fs)}
	fs.IntVar(&r.cfg.TP, "tp", 1, "tensor-parallel degree")
	fs.IntVar(&r.cfg.PP, "pp", 1, "pipeline-parallel degree")
	fs.IntVar(&r.cfg.MicroBatches, "micro", 1, "number of microbatches")
	fs.IntVar(&r.cfg.VirtualStages, "virtual", 1, "virtual pipeline stages (interleaving)")
	fs.BoolVar(&r.cfg.SeqParallel, "seqpar", false, "sequence parallelism")
	fs.BoolVar(&r.cfg.ActRecompute, "recompute", false, "activation recomputation")
	fs.BoolVar(&r.cfg.DistOptimizer, "distopt", false, "distributed optimizer")
	return r
}

// build turns the flags into a cluster, workload and model-FLOPs
// count.
func (r *recipeFlags) build() (maya.Cluster, maya.Workload, float64) {
	cluster, mdl := r.resolve()
	cfg := r.cfg
	cfg.Model, cfg.NGPUs, cfg.GlobalBatch = mdl, cluster.TotalGPUs(), r.batch
	w, err := maya.NewMegatron(cfg)
	fatalIf(err)
	return cluster, w, mdl.TrainFLOPsPerIter(r.batch)
}

const congestionUsage = "resolve collectives against link-level contention (concurrent collectives sharing a fabric link split its bandwidth)"

// runFlags are the simulated-run flags predict and simulate share.
type runFlags struct {
	congestion, breakdown bool
	timeline              string
	tl                    *maya.Timeline // set by options when -timeline names a file
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	f := &runFlags{}
	fs.BoolVar(&f.congestion, "congestion", false, congestionUsage)
	fs.StringVar(&f.timeline, "timeline", "", "write the simulated run as Chrome-trace JSON to this file (chrome://tracing, Perfetto)")
	fs.BoolVar(&f.breakdown, "breakdown", false, "attribute per-worker stall time (event/collective waits, host-bound, pipeline bubbles)")
	return f
}

// options turns the flags into the run's PredictOptions.
func (f *runFlags) options() []maya.PredictOption {
	var opts []maya.PredictOption
	if f.timeline != "" {
		f.tl = maya.NewTimeline()
		opts = append(opts, maya.WithTimeline(f.tl))
	}
	if f.breakdown {
		opts = append(opts, maya.WithStallBreakdown())
	}
	if f.congestion {
		opts = append(opts, maya.WithCongestion())
	}
	return opts
}

// writeTimeline exports the recorded timeline, if one was requested.
func (f *runFlags) writeTimeline() {
	if f.tl == nil {
		return
	}
	out, err := os.Create(f.timeline)
	fatalIf(err)
	err = f.tl.WriteChromeTrace(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: wrote timeline %s (%d events); open in chrome://tracing or ui.perfetto.dev\n", f.timeline, f.tl.Len())
}

func runPredict(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya predict", flag.ExitOnError)
	recipe := addRecipeFlags(fs)
	actual := fs.Bool("actual", false, "also measure on the synthetic silicon (ground truth)")
	run := addRunFlags(fs)
	asJSON := fs.Bool("json", false, "emit JSON")
	fatalIf(fs.Parse(args))

	cluster, w, flops := recipe.build()
	fmt.Fprintf(os.Stderr, "maya: training estimators for %s...\n", cluster.Name)
	// The one-entry capture cache hands -actual the capture the
	// prediction paid for.
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology(recipe.topology),
		maya.WithCaptureCache(maya.NewCaptureCache(1)))
	fatalIf(err)
	rep, err := pred.Predict(ctx, w, append(run.options(), maya.WithModelFLOPs(flops))...)
	fatalIf(err)
	run.writeTimeline()

	out := map[string]any{"predicted": rep}
	if *actual {
		out["actual"], err = pred.MeasureActual(ctx, w, maya.WithModelFLOPs(flops))
		fatalIf(err)
	}
	if *asJSON {
		printJSON(out)
		return
	}
	fmt.Println(rep)
	printStalls(rep)
	if *actual {
		fmt.Println(out["actual"])
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fatalIf(enc.Encode(v))
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
	popts := []maya.PredictorOption{maya.WithTopology(recipe.topology)}
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
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: wrote %s (%d bytes): %s\n", *out, n, tr)
}

func runSimulate(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya simulate", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file written by `maya capture` (required)")
	oracle := fs.Bool("oracle", false, "annotate with ground-truth kernel times (Table 3 oracle rows)")
	netsim := fs.Bool("netsim", false, "model collectives with the hierarchical network simulator")
	var topology string
	addTopologyFlag(fs, &topology)
	actual := fs.Bool("actual", false, "physical replay with ground truth (MeasureActual equivalent)")
	faultsPath := fs.String("faults", "", "evaluate the fault scenario in this JSON plan (stragglers, fail-stops, resizes, checkpoint schedule); needs a trace captured with -no-dedup")
	flops := fs.Float64("flops", 0, "per-iteration model FLOPs (enables MFU)")
	run := addRunFlags(fs)
	asJSON := fs.Bool("json", false, "emit JSON")
	fatalIf(fs.Parse(args))

	switch {
	case *tracePath == "":
		exitUsage("maya simulate: -trace is required")
	case *netsim && (*oracle || *actual):
		exitUsage("maya simulate: -netsim plugs into the learned estimators and cannot combine with -oracle or -actual (those annotate every collective with ground truth)")
	case *faultsPath != "" && *actual:
		exitUsage("maya simulate: -faults applies to simulated predictions; -actual models the silicon, not operational faults")
	}
	f, err := os.Open(*tracePath)
	fatalIf(err)
	tr, err := maya.ReadTrace(f)
	f.Close()
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "maya: loaded %s\n", tr)

	cluster, err := maya.ClusterByName(tr.Cluster())
	fatalIf(err)
	if topology == "" {
		// Default to the fabric the trace was captured under.
		topology = tr.Topology()
	}
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology(topology))
	fatalIf(err)

	opts := append(run.options(), maya.WithModelFLOPs(*flops))
	switch {
	case *actual:
		opts = append(opts, maya.WithPhysicalReplay())
	case *oracle:
		opts = append(opts, maya.WithOracleAnnotation())
	default:
		fmt.Fprintf(os.Stderr, "maya: training estimators for %s...\n", cluster.Name)
	}
	if *netsim {
		opts = append(opts, maya.WithNetSim())
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
	run.writeTimeline()

	if *asJSON {
		printJSON(rep)
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

// runSearch finds a cost-optimal recipe by black-box search over the
// Megatron configuration space (seed 7), each candidate predicted.
func runSearch(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya search", flag.ExitOnError)
	problem := addProblemFlags(fs)
	congestion := fs.Bool("congestion", false, congestionUsage)
	algo := fs.String("algo", "cma", "cma | oneplusone | pso | twopointsde | random | grid")
	budget := fs.Int("budget", 400, "sampled configurations budget")
	parallel := fs.Int("parallel", 8, "concurrent trials")
	noPrune := fs.Bool("no-prune", false, "disable fidelity-preserving pruning")
	capCache := fs.Int("capture-cache", 256, "capture cache capacity (0 disables); optimizers that revisit topologies skip re-emulation")
	fatalIf(fs.Parse(args))

	cluster, mdl := problem.resolve()
	fmt.Fprintf(os.Stderr, "maya search: %s on %s, algorithm=%s budget=%d\n", mdl.Name, cluster.Name, *algo, *budget)

	popts := []maya.PredictorOption{maya.WithTopology(problem.topology)}
	if *congestion {
		popts = append(popts, maya.WithCongestion())
	}
	if *capCache > 0 {
		popts = append(popts, maya.WithCaptureCache(maya.NewCaptureCache(*capCache)))
	}
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, popts...)
	fatalIf(err)

	out, err := pred.FindRecipe(ctx, maya.SearchProblem{Model: mdl, Cluster: cluster, GlobalBatch: problem.batch},
		maya.SearchOptions{Algorithm: *algo, Budget: *budget, Parallel: *parallel, DisablePruning: *noPrune, Seed: 7})
	interrupted := errors.Is(err, context.Canceled) && out != nil && out.Best != nil
	if interrupted {
		fmt.Fprintln(os.Stderr, "maya search: interrupted; best recipe so far:")
	} else {
		fatalIf(err)
	}

	fmt.Printf("best recipe:   %s\n", out.Best.Knobs)
	fmt.Printf("  iteration:   %v\n", out.Best.IterTime)
	fmt.Printf("  MFU:         %.1f%%\n", out.Best.MFU*100)
	fmt.Printf("  peak memory: %.1f GiB\n", float64(out.Best.PeakMem)/(1<<30))
	fmt.Printf("trials: %d executed, %d oom-verdict, %d dominated, %d cached, %d pruned, %d invalid (%s in %v)\n",
		out.Stats.Executed, out.Stats.Verdict, out.Stats.Dominated, out.Stats.Cached, out.Stats.Skipped,
		out.Stats.Invalid, out.Stopped, out.Elapsed.Round(1e6))
	if interrupted {
		os.Exit(130)
	}
}

// runExperiments regenerates the paper's tables and figures, one id or
// all of them; MAYA_EXP_SCALE=full runs the paper-sized sweeps.
func runExperiments(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("maya experiments", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	list := fs.Bool("list", false, "list experiment ids")
	fatalIf(fs.Parse(args))

	ids := experiments.IDs()
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp != "all" {
		ids = []string{*exp}
	}
	env := experiments.NewEnv(experiments.ScaleFromEnv())
	for _, id := range ids {
		t, err := experiments.Run(ctx, id, env)
		if err != nil {
			fatalIf(fmt.Errorf("%s: %w", id, err))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
}

// exitUsage reports a command-line mistake and exits 2, as flag parsing does.
func exitUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// fatalIf exits on err: 130 on a cancellation (Ctrl-C), 1 otherwise.
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
