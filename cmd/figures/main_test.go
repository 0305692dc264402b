package main

import (
	"bytes"
	"strings"
	"testing"

	"pinatubo/internal/figures"
)

// TestRunRejects pins the command line's refusals: -csv unless -fig names
// one figure with a CSV form, so a CSV reader never gets text tables or
// the first of several figures, and any -fig name it does not know. Each
// is refused before anything is printed.
func TestRunRejects(t *testing.T) {
	cases := []struct {
		fig string
		csv bool
	}{
		{"all", true},
		{"table1", true},
		{"margins", true},
		{"ablation", true},
		{"extended", true},
		{"nope", false},
		{"apply", false},
		{"dram", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(&out, c.fig, c.csv); err == nil {
			t.Errorf("-fig %s -csv=%v accepted", c.fig, c.csv)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s -csv=%v printed %d bytes before failing", c.fig, c.csv, out.Len())
		}
	}
}

// TestRunBatchCSV checks that a figure with a CSV form prints only its
// CSV: a header and one record per sweep point.
func TestRunBatchCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "batch", true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != "k,shards,sequential_s,makespan_s,speedup,plan_match" ||
		len(lines) != len(figures.DefaultBatchKs)+1 {
		t.Errorf("batch CSV:\n%s", out.String())
	}
}
