// Command maya-search finds cost-optimal training recipes by
// black-box search over the Megatron configuration space, evaluating
// every candidate through Maya's emulation pipeline. Ctrl-C stops
// the search cleanly and reports the best recipe found so far.
//
// Example:
//
//	maya-search -cluster 64xH100 -model gpt3-18.4b -batch 256 -algo cma -budget 400
package main

import (
	"context"
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
	var (
		clusterSpec = flag.String("cluster", "32xH100", "cluster spec")
		topology    = flag.String("topology", "", "network fabric spec: auto (default), flat, rail, oversub:K, pods:K")
		congestion  = flag.Bool("congestion", false, "resolve collectives against link-level contention (concurrent collectives sharing a fabric link split its bandwidth)")
		modelName   = flag.String("model", "gpt3-18.4b", "model preset")
		batch       = flag.Int("batch", 256, "global batch size")
		algo        = flag.String("algo", "cma", "cma | oneplusone | pso | twopointsde | random | grid")
		budget      = flag.Int("budget", 400, "sampled configurations budget")
		parallel    = flag.Int("parallel", 8, "concurrent trials")
		noPrune     = flag.Bool("no-prune", false, "disable fidelity-preserving pruning")
		capCache    = flag.Int("capture-cache", 256, "capture cache capacity (0 disables); optimizers that revisit topologies skip re-emulation")
		version     = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cluster, err := maya.ClusterByName(*clusterSpec)
	fatalIf(err)
	mdl, err := models.ByName(*modelName)
	fatalIf(err)

	fmt.Fprintf(os.Stderr, "maya-search: %s on %s, algorithm=%s budget=%d\n",
		mdl.Name, cluster.Name, *algo, *budget)

	popts := []maya.PredictorOption{maya.WithTopology(*topology)}
	if *congestion {
		popts = append(popts, maya.WithCongestion())
	}
	if *capCache > 0 {
		popts = append(popts, maya.WithCaptureCache(maya.NewCaptureCache(*capCache)))
	}
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, popts...)
	fatalIf(err)

	out, err := pred.FindRecipe(ctx,
		maya.SearchProblem{Model: mdl, Cluster: cluster, GlobalBatch: *batch},
		maya.SearchOptions{
			Algorithm: *algo, Budget: *budget, Parallel: *parallel,
			DisablePruning: *noPrune, Seed: 7,
		})
	interrupted := errors.Is(err, context.Canceled) && out != nil && out.Best != nil
	if interrupted {
		fmt.Fprintln(os.Stderr, "maya-search: interrupted; best recipe so far:")
	} else {
		fatalIf(err)
	}

	fmt.Printf("best recipe:   %s\n", out.Best.Knobs)
	fmt.Printf("  iteration:   %v\n", out.Best.IterTime)
	fmt.Printf("  MFU:         %.1f%%\n", out.Best.MFU*100)
	fmt.Printf("  peak memory: %.1f GiB\n", float64(out.Best.PeakMem)/(1<<30))
	fmt.Printf("trials: %d executed, %d oom-verdict, %d dominated, %d cached, %d pruned, %d invalid (%s in %v)\n",
		out.Stats.Executed, out.Stats.Verdict, out.Stats.Dominated,
		out.Stats.Cached, out.Stats.Skipped, out.Stats.Invalid,
		out.Stopped, out.Elapsed.Round(1e6))
	if interrupted {
		os.Exit(130)
	}
}

func fatalIf(err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "maya-search: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "maya-search:", err)
		os.Exit(1)
	}
}
