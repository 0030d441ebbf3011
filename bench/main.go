// Command bench is the repository's benchmark: one harness, four
// workloads, end-to-end metrics from an untraced run and per-layer
// metrics from a traced run. BENCHMARK.json at the repository root
// declares it; README.md in this directory explains every workload
// and metric.
//
//	go run ./bench                          every workload, untraced then traced, as a table
//	go run ./bench -workload predict-cold   one workload; the last stdout line is the result JSON
//	go run ./bench -runs 5 -out a.json      five runs of everything, kept for -compare
//	go run ./bench -compare a.json b.json   same / worse / unresolved per workload × metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{"predict-cold", "replay-fullworld", "search-warm", "serve-mixed"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "predict-cold":
		return newPredictCold(cfg)
	case "replay-fullworld":
		return newReplay(cfg)
	case "search-warm":
		return newSearchWarm(cfg)
	case "serve-mixed":
		return newServeMixed(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// buildDir holds what a run leaves behind (span files, child result
// files); the root .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		cfg      config
		trace    int
		runs     int
		out      string
		compare  bool
		manifest string
	)
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print its result JSON as the last line (default: all of them, as a table)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: recipe order, FLOPs values, popularity draws, search order, fault plan")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where the traced run writes its spans (default "+buildDir+"/spans-<workload>.json)")
	flag.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload to a few ops and run one cycle per pass (smoke test)")
	flag.IntVar(&runs, "runs", 1, "without -workload: how many times to run everything")
	flag.StringVar(&out, "out", "", "without -workload: write every run's results to this file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments, using the bounds in BENCHMARK.json")
	flag.StringVar(&manifest, "manifest", "BENCHMARK.json", "the benchmark manifest -compare reads bounds from")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.tiny {
		cfg.seconds = 0 // one cycle per pass
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		worse, err := compareFiles(os.Stdout, manifest, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case cfg.workload == "":
		ok, err := runAll(ctx, cfg, runs, out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if cfg.trace && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(buildDir, "spans-"+cfg.workload+".json")
		}
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		defs := endToEndMetrics
		if cfg.trace {
			defs = layerMetrics
		}
		res.report(defs)
		if out != "" {
			if err := writeJSON(out, res); err != nil {
				fatal(err)
			}
		}
		// The contract's result line: exactly these four keys.
		line, err := json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Metrics   metrics `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
