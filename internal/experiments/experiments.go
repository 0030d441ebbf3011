// Package experiments regenerates every table and figure of the
// paper's evaluation from this repository's implementation. Each
// experiment is registered under the paper's artifact id ("fig7",
// "table3", ...) and renders the same rows/series the paper reports;
// DESIGN.md's experiment index maps ids to artifacts.
//
// Wall-clock budgets are controlled by the MAYA_EXP_SCALE environment
// variable: "quick" (default; suitable for `go test -bench`) evaluates
// reduced but representative sweeps, "full" widens them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/hardware"
	"maya/internal/silicon"
	"maya/internal/workload"
)

// Scale selects experiment sweep sizes.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// ScaleFromEnv reads MAYA_EXP_SCALE.
func ScaleFromEnv() Scale {
	if strings.EqualFold(os.Getenv("MAYA_EXP_SCALE"), "full") {
		return Full
	}
	return Quick
}

// pick selects by scale.
func (s Scale) pick(quick, full int) int {
	if s == Full {
		return full
	}
	return quick
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, " "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, " note: %s\n", n)
	}
}

// Runner is an experiment entry point. Runners observe ctx through
// every pipeline call, so an experiment sweep can be cancelled.
type Runner func(context.Context, *Env) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// IDs lists the registered experiments, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(ctx context.Context, id string, env *Env) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(ctx, env)
}

// Env caches expensive shared state (trained suites, sweep results)
// across experiments in one process.
type Env struct {
	Scale Scale
	// Suites caches trained estimator suites. NewEnv wires the
	// process-wide default cache.
	Suites *core.SuiteCache

	// memos is unbounded: one entry per sweep or capture a run names.
	memos *core.Memo[string, any]
}

// NewEnv builds an environment at the given scale.
func NewEnv(scale Scale) *Env {
	return &Env{Scale: scale, Suites: core.DefaultSuiteCache(), memos: core.NewMemo[string, any](math.MaxInt)}
}

// memo runs fn once per key and caches its result. Failures are not
// results: a failed entry — a cancellation above all — is dropped so
// the next Run (with a live ctx) retries instead of replaying it
// forever. fn carries its caller's ctx; waiters just wait for it.
func (e *Env) memo(key string, fn func() (any, error)) (any, error) {
	v, _, err := e.memos.Get(context.TODO(), key, fn)
	return v, err
}

// Predictor returns the Maya pipeline for a cluster (cached suite).
func (e *Env) Predictor(ctx context.Context, cluster hardware.Cluster, kind estimator.ProfileKind) (*core.Pipeline, error) {
	suite, _, err := e.Suites.SuiteFor(ctx, cluster, e.Oracle(cluster), kind)
	if err != nil {
		return nil, err
	}
	return &core.Pipeline{Cluster: cluster, Suite: suite, Opts: core.Options{SelectiveLaunch: true}}, nil
}

// Measurer returns a pipeline that only captures and measures: no
// estimator suite is trained or consulted, so experiments that need
// ground truth alone (fig2's deploy-and-time sweeps) skip training
// entirely.
func (e *Env) Measurer(cluster hardware.Cluster) *core.Pipeline {
	return &core.Pipeline{Cluster: cluster, Opts: core.Options{SelectiveLaunch: true}}
}

// CaptureOnce memoizes one capture per key, so experiments that
// evaluate the same workload several ways (predicted, oracle,
// actual; or the same recipe revisited by a cross matrix) pay
// emulation and collation once per (cluster, workload).
func (e *Env) CaptureOnce(ctx context.Context, pipe *core.Pipeline, key string, build func() (workload.Workload, error)) (*core.Capture, error) {
	v, err := e.memo("capture/"+pipe.Cluster.Name+"/"+key, func() (any, error) {
		w, err := build()
		if err != nil {
			return nil, err
		}
		return pipe.Capture(ctx, w)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Capture), nil
}

// MAPE returns the held-out per-kernel error map for a cluster.
func (e *Env) MAPE(ctx context.Context, cluster hardware.Cluster, kind estimator.ProfileKind) (map[string]float64, error) {
	_, mape, err := e.Suites.SuiteFor(ctx, cluster, e.Oracle(cluster), kind)
	return mape, err
}

// Oracle returns the canonical silicon for a cluster: one instance
// per cluster for the life of the Env, because a capture keys its
// oracle plan by the oracle's identity — every measurement and oracle
// row over one capture then shares a single plan build.
func (e *Env) Oracle(cluster hardware.Cluster) *silicon.Oracle {
	v, _ := e.memo("oracle/"+cluster.Name, func() (any, error) { return core.DefaultOracle(cluster), nil })
	return v.(*silicon.Oracle)
}

func dur2s(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
