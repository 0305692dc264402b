// Command pinbench runs the repository's benchmark (package bench): four
// fixed-work workloads through System.Apply, pipelined batch windows and
// an in-process pinatubod server, each checked against a reference model.
//
// Usage, from the bench directory:
//
//	go run ./cmd/pinbench                          # all workloads, untraced
//	go run ./cmd/pinbench -workload window-ecc -trace
//	go run ./cmd/pinbench -seed 7 -scale 0.1
//
// For each workload it prints every end-to-end metric with its unit (and
// with -trace the per-layer metrics and span profile), then one JSON line:
// {"correct", "attempted", "failed", "metrics"}, the metrics being the
// end-to-end ones, or the per-layer ones with -trace. With -trace it also
// writes out/trace-<workload>.json, and every run writes
// out/report-<workload>.json. It exits 1 when any output disagrees with
// the reference model.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"pinatubo/bench"
)

func main() {
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	scale := flag.Float64("scale", 1, "multiplier on every workload's fixed op count")
	trace := flag.Bool("trace", false, "add a traced pass: per-layer metrics, span profile and trace files")
	out := flag.String("out", "out", "directory for trace and report files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pinbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	var ws []bench.Workload
	if *workload == "all" {
		ws = bench.Workloads
	} else {
		w, ok := bench.Lookup(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "pinbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
		ws = []bench.Workload{w}
	}

	correct := true
	for _, w := range ws {
		rep, err := bench.Run(w, bench.Options{Seed: *seed, Scale: *scale, Trace: *trace, Out: *out})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pinbench:", err)
			os.Exit(1)
		}
		printReport(w, rep)
		line, err := rep.ResultLine(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pinbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func printReport(w bench.Workload, r bench.Report) {
	fmt.Printf("== %s (seed %d, scale %g): %s\n", r.Workload, r.Seed, r.Scale, w.Why)
	fmt.Println("end-to-end (untraced pass):")
	printMetrics(r.EndToEnd)
	if r.Layers != nil {
		fmt.Println("per-layer (traced pass):")
		printMetrics(r.Layers)
		fmt.Println("spans (traced pass; self = time not covered by child spans):")
		fmt.Printf("  %-16s %10s %12s %12s %8s\n", "span", "count", "total ms", "self ms", "share")
		for _, s := range r.Spans {
			fmt.Printf("  %-16s %10d %12.3f %12.3f %8.4f\n", s.Name, s.Count, s.TotalMS, s.SelfMS, s.ShareOfMeasure)
		}
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "WRONG OUTPUT"
	}
	fmt.Printf("check: %s; attempted %d, failed %d; wall %.1f s\n", verdict, r.Attempted, r.Failed, r.Wall.Seconds())
	for _, m := range r.Mismatches {
		fmt.Println("  mismatch:", m)
	}
}

func printMetrics(ms []bench.Metric) {
	for _, m := range ms {
		note := ""
		if m.N > 0 {
			note = fmt.Sprintf("n=%d", m.N)
		}
		if m.Segments > 1 {
			note += fmt.Sprintf(", best of %d segments", m.Segments)
		}
		note = strings.TrimPrefix(note, ", ")
		if math.IsNaN(m.Value) {
			fmt.Printf("  %-28s %16s %-8s %s (too few samples)\n", m.Name, "n/a", m.Unit, note)
			continue
		}
		fmt.Printf("  %-28s %16.6g %-8s %s\n", m.Name, m.Value, m.Unit, note)
	}
}
