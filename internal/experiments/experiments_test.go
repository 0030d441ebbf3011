package experiments

import (
	"bytes"
	"context"
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

// TestNetsimBoundHolds keeps the netsim experiment's per-regime MAPE
// bound (netsimHierBound) a gate of `go test`: the experiment itself
// fails when a regime's error exceeds it.
func TestNetsimBoundHolds(t *testing.T) {
	if _, err := Run(context.Background(), "netsim", NewEnv(Quick)); err != nil {
		t.Fatal(err)
	}
}
