package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"testing"

	"nbody/internal/core"
	"nbody/internal/par"
)

// Every ablation row must be a configuration core.New accepts and steps.
// At n = 2 000 the flat rows run their tree walks, not the direct sum
// below allpairs.DirectMaxN.
func TestAblateRowsStep(t *testing.T) {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	if err := runAblate(fs, []string{"-n", "2000", "-steps", "1", "-repeats", "1"}); err != nil {
		t.Fatal(err)
	}
}

// Rows that share a configuration print the one measurement taken of it.
func TestAblateMeasuresEachConfigOnce(t *testing.T) {
	paper := core.Config{Algorithm: core.Octree, Layout: core.LayoutWalk}
	rows := []ablateRow{
		{"structure", "octree (paper)", paper},
		{"layout", "flat lists (octree)", core.Config{Algorithm: core.Octree}},
		{"build", "concurrent insertion (paper)", paper},
		{"tree-reuse", "rebuild every step (paper)", paper},
	}
	tb, err := ablate(rows, galaxySystem(2000, 42), par.NewRuntime(0, par.Dynamic), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tb.RenderCSV(&out)
	records, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+len(rows) {
		t.Fatalf("%d CSV records for %d rows", len(records), len(rows))
	}
	first := records[1]
	for _, rec := range records[3:] {
		if rec[2] != first[2] || rec[3] != first[3] {
			t.Errorf("%s %s reads %s, %s; %s %s reads %s, %s", rec[0], rec[1], rec[2], rec[3], first[0], first[1], first[2], first[3])
		}
	}
}
