package experiments

import (
	"bytes"
	"context"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18",
		"table1", "table2", "table3", "table4", "table6", "table7", "table8",
		"table9", "table10", "netsim",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(context.Background(), "fig99", NewEnv(Quick)); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"note text"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "long-column", "333333", "note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Capabilities(t *testing.T) {
	if testing.Short() {
		t.Skip("runs baseline probes")
	}
	tbl, err := Run(context.Background(), "table1", NewEnv(Quick))
	if err != nil {
		t.Fatal(err)
	}
	// The matrix must match Table 1's key contrasts: Maya supports
	// everything; AMPeD rejects sequence parallelism.
	var seqRow []string
	for _, row := range tbl.Rows {
		if row[0] == "sequence parallel" {
			seqRow = row
		}
	}
	if seqRow == nil {
		t.Fatalf("no sequence-parallel row: %v", tbl.Rows)
	}
	if seqRow[1] != "yes" {
		t.Error("Maya must support sequence parallelism")
	}
	if seqRow[4] != "no" {
		t.Errorf("AMPeD must not support sequence parallelism: %v", seqRow)
	}
}

func TestTable4GeneralityAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("emulates the generality matrix")
	}
	tbl, err := Run(context.Background(), "table4", NewEnv(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 50 {
		t.Fatalf("only %d generality rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		status := row[len(row)-1]
		if strings.Contains(status, "FAIL") {
			t.Errorf("%s: %s", row[0], status)
		}
	}
}

func TestMemoSharesResults(t *testing.T) {
	e := NewEnv(Quick)
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := e.memo("k", func() (any, error) {
			calls++
			return 42, nil
		})
		if err != nil || v.(int) != 42 {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("memo ran %d times", calls)
	}
}

// claimBound holds one artifact's headline claim to [lo, hi]: the
// value measured at Quick scale widened by a stated margin. DESIGN's
// experiment index lists every row with both.
type claimBound struct {
	id, claim string
	lo, hi    float64
}

// claimBounds asserts the paper's claims, per cluster where an
// artifact spans several. Every quantity is deterministic; none is
// wall-clock.
func claimBounds() []claimBound {
	inf := math.Inf(1)
	return []claimBound{
		{"fig2", "worst_cross_cost", 1.15, inf},
		{"table1", "maya_gaps", 0, 0},
		{"table2", "inert_knobs", 0, 0},
		{"fig7", "mae/GPT3-2.7B/8xV100", 0, 0.017},
		{"fig7", "mae/GPT3-2.7B/16xV100", 0, 0.013},
		{"fig7", "mae/GPT3-18.4B/32xH100", 0, 0.021},
		{"fig7", "mae/GPT3-18.4B/64xH100", 0, 0.054},
		{"fig8", "maya_cost/GPT3-2.7B/8xV100", 1, 1.05},
		{"fig8", "maya_cost/GPT3-2.7B/16xV100", 1, 1.05},
		{"fig8", "maya_cost/GPT3-18.4B/32xH100", 1, 1.05},
		{"fig8", "maya_cost/GPT3-18.4B/64xH100", 1, 1.05},
		{"fig9", "maya_median/GPT3-2.7B/8xV100", 0, 0.009},
		{"fig9", "maya_median/GPT3-2.7B/16xV100", 0, 0.006},
		{"fig9", "maya_median/GPT3-18.4B/32xH100", 0, 0.011},
		{"fig9", "maya_median/GPT3-18.4B/64xH100", 0, 0.011},
		{"table3", "oracle_err/8xV100", 0, 0.005},
		{"table3", "oracle_err/32xV100", 0, 0.005},
		{"table3", "e2e_err/8xV100", 0, 0.015},
		{"table3", "e2e_err/32xV100", 0, 0.029},
		{"table4", "failures", 0, 0},
		{"fig10", "within5_frac", 0.875, 1},
		{"fig11", "norm_cost/GPT3-2.7B/8xV100", 1, 1.05},
		{"fig11", "norm_cost/GPT3-2.7B/16xV100", 1, 1.05},
		{"fig11", "norm_cost/GPT3-18.4B/32xH100", 1, 1.05},
		{"fig11", "norm_cost/GPT3-18.4B/64xH100", 1, 1.05},
		{"fig12", "scaling_efficiency", 0.8, 1},
		{"fig13", "unique_workers/1024", 1, 8},
		{"fig13", "unique_workers/4096", 1, 8},
		{"fig13", "unique_workers/16384", 1, 8},
		{"fig14", "iter_shift/8xV100", 0, 1e-6},
		{"fig14", "iter_shift/16xV100", 0, 1e-6},
		{"fig14", "iter_shift/32xH100", 0, 1e-6},
		{"fig14", "iter_shift/64xH100", 0, 1e-6},
		{"fig15", "unaccounted/GPT3-2.7B/8xV100", 0, 0},
		{"fig15", "unaccounted/GPT3-2.7B/16xV100", 0, 0},
		{"fig15", "unaccounted/GPT3-18.4B/32xH100", 0, 0},
		{"fig15", "unaccounted/GPT3-18.4B/64xH100", 0, 0},
		{"fig16", "best_vs_grid/GPT3-2.7B/8xV100", 0.95, inf},
		{"fig16", "best_vs_grid/GPT3-18.4B/64xH100", 0.95, inf},
		{"table6", "verdicts/optimized", 1, inf},
		{"table6", "skips/ablated", 0, 0},
		{"table6", "dominated/ablated", 0, 0},
		{"table7", "coverage", 1, 1},
		{"table7", "heavy_mape", 0, 0.06},
		{"table8", "coverage", 1, 1},
		{"table8", "heavy_mape", 0, 0.07},
		{"table9", "coverage", 1, 1},
		{"table9", "heavy_mape", 0, 0.06},
		{"table10", "unattributed/GPT3-2.7B/8xV100", 0, 0},
		{"table10", "unattributed/GPT3-18.4B/64xH100", 0, 0},
		{"fig17", "coll_wait/2", 0.30, 1},
		{"fig17", "coll_wait/8", 0, 0.20},
		{"netsim", "worst_hier_mape", 0, netsimHierBound},
		{"fig18", "goodput/3/1", 0, 0.65},
		{"fig18", "goodput/30/1", 0.85, 1},
	}
}

// searchIDs are the artifacts that run recipe searches.
var searchIDs = map[string]bool{"fig11": true, "fig15": true, "fig16": true, "table6": true, "table10": true}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestClaims runs every artifact at Quick scale on one Env and holds
// each headline claim to its bound, so a model change that degrades
// one fails here. The searches skip under -short, and under -race,
// where they take minutes and gigabytes. -v logs every recorded
// claim.
func TestClaims(t *testing.T) {
	byID := map[string][]claimBound{}
	for _, b := range claimBounds() {
		byID[b.id] = append(byID[b.id], b)
	}
	if len(byID) != len(IDs()) {
		t.Fatalf("bounds name %d artifacts, the registry has %d", len(byID), len(IDs()))
	}
	env := NewEnv(Quick)
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			if len(byID[id]) == 0 {
				t.Fatal("no claim asserted")
			}
			if searchIDs[id] && (testing.Short() || raceEnabled) {
				t.Skip("runs recipe searches")
			}
			tbl, err := Run(context.Background(), id, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range slices.Sorted(maps.Keys(tbl.claims)) {
				t.Logf("%s = %.6g", name, tbl.claims[name])
			}
			for _, b := range byID[id] {
				v, ok := tbl.claims[b.claim]
				if !ok {
					t.Errorf("claim %s not recorded", b.claim)
				} else if !(v >= b.lo && v <= b.hi) {
					t.Errorf("claim %s = %.6g, want within [%g, %g]", b.claim, v, b.lo, b.hi)
				}
			}
		})
	}
}
