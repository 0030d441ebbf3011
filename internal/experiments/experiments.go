// Package experiments regenerates every table and figure of the
// paper's evaluation from this repository's implementation. Each
// experiment is registered under the paper's artifact id ("fig7",
// "table3", ...) and renders the same rows/series the paper reports;
// DESIGN.md's experiment index maps ids to artifacts and lists the
// headline claim `go test` holds each one to.
//
// Experiments drive the public maya.Predictor. What that API cannot
// express lives in env.go, the package's one route below it.
//
// Wall-clock budgets are controlled by the MAYA_EXP_SCALE environment
// variable: "quick" (default; what TestClaims runs) evaluates reduced
// but representative sweeps, "full" widens them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
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
	// claims are the artifact's headline numbers by name, unrounded,
	// for TestClaims to hold against their bounds. Render does not
	// print them.
	claims map[string]float64
}

// claim records one headline number.
func (t *Table) claim(name string, v float64) {
	if t.claims == nil {
		t.claims = make(map[string]float64)
	}
	t.claims[name] = v
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
func IDs() []string { return slices.Sorted(maps.Keys(registry)) }

// Run executes one experiment by id.
func Run(ctx context.Context, id string, env *Env) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(ctx, env)
}

func dur2s(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
