// Command pinlint is the project's invariant checker: a multichecker over
// the internal/lint analyzer suite, built on the standard library alone so
// the repo stays dependency-free. Its eleven analyzers machine-check the
// conventions the simulator's bit-exactness claims rest on — seeded
// randomness only, no wall clock, no map-iteration order in results, no
// exact float comparison in cost math, %w-wrapped sentinels, exhaustive
// enum switches, documented panics, unit-explicit time conversions, no
// internal types in public signatures, reasoned ignore directives — and
// two disciplines of the batch and server hot paths: state-loop field
// ownership, checked through a callgraph, and row writes only through the
// memory model's mutators.
//
// Usage:
//
//	go run ./cmd/pinlint ./...            # lint the whole module
//	go run ./cmd/pinlint -list            # describe the analyzers
//	go run ./cmd/pinlint -only detrand,floateq ./internal/...
//	go run ./cmd/pinlint -json ./...      # machine-readable report
//
// Findings print as file:line:col: analyzer: message and make the exit
// status 1. With -json the report is a single JSON object carrying the
// findings (file/line/col/analyzer/message) and per-analyzer wall time,
// for CI to archive and gate on. A finding can be acknowledged in place
// with `//pinlint:ignore <analyzer> <reason>` on or above the flagged
// line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pinatubo/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonTiming is one analyzer's wall time summed across all packages.
type jsonTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"ms"`
}

// jsonReport is the -json document.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Timings  []jsonTiming  `json:"timings"`
	Packages int           `json:"packages"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("pinlint", flag.ExitOnError)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	asJSON := fs.Bool("json", false, "emit a JSON report (findings + per-analyzer wall time)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	analyzers, err := selectAnalyzers(*only, *disable)
	if err != nil {
		return err
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return err
	}
	dirs, err := loader.Expand(patterns, cwd)
	if err != nil {
		return err
	}

	report := jsonReport{
		Findings: []jsonFinding{},
		Packages: len(dirs),
	}
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return err
		}
		for _, a := range analyzers {
			//pinlint:ignore detrand analyzer wall time is tooling telemetry, not simulated output
			start := time.Now()
			diags, err := lint.Run(a, pkg)
			//pinlint:ignore detrand analyzer wall time is tooling telemetry, not simulated output
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return err
			}
			for _, d := range diags {
				if !*asJSON {
					fmt.Println(d)
				}
				report.Findings = append(report.Findings, jsonFinding{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			}
		}
	}
	for _, a := range analyzers {
		report.Timings = append(report.Timings, jsonTiming{
			Analyzer: a.Name,
			Millis:   float64(elapsed[a.Name].Microseconds()) / 1000,
		})
	}
	sort.Slice(report.Timings, func(i, j int) bool {
		return report.Timings[i].Millis > report.Timings[j].Millis
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if n := len(report.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "pinlint: %d finding(s)\n", n)
		os.Exit(1)
	}
	return nil
}

// selectAnalyzers filters the suite by the -only / -disable flags.
func selectAnalyzers(only, disable string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("pinlint: unknown analyzer %q", name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	skip := map[string]bool{}
	for _, name := range strings.Split(disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("pinlint: unknown analyzer %q", name)
			}
			skip[name] = true
		}
	}
	for _, a := range lint.All() {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}
