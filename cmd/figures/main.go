// Command figures regenerates the paper's evaluation tables and figures
// (Table 1, Figs. 9–13) and this reproduction's extension sweeps from the
// simulator and prints them as aligned text tables. EXPERIMENTS.md records
// a reference run next to the paper's numbers. The batch sweep's
// sequential times and makespans are pinned to the nanosecond by
// TestBatchSweep; the Apply round's allocations, cache misses and DRAM
// prices by the root package's TestApplyOnePathAllocs and
// TestDRAMApplyRoundPrices.
//
// Usage:
//
//	figures                        # everything
//	figures -fig 9                 # one figure: table1, 9, 10, 11, 12, 13, margins, ablation, extended, faults, replication, ecc, headroom, batch, techcompare
//	figures -fig techcompare       # NVM-vs-DRAM latency/throughput/energy sweep
//	figures -fig batch -csv        # one figure as CSV (not table1, margins, ablation or extended)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pinatubo/internal/analog"
	"pinatubo/internal/figures"
	"pinatubo/internal/nvm"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: table1, 9, 10, 11, 12, 13, margins, ablation, extended, faults, replication, ecc, headroom, batch, techcompare, all")
	csvOut := flag.Bool("csv", false, "emit one figure as CSV instead of a text table (needs -fig naming a figure with a CSV form)")
	flag.Parse()

	if err := run(os.Stdout, *fig, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// csvFigures names the figures that have a CSV form.
var csvFigures = map[string]bool{
	"9": true, "10": true, "11": true, "12": true, "13": true, "faults": true,
	"replication": true, "ecc": true, "headroom": true, "batch": true, "techcompare": true,
}

// run writes the figure fig names (every figure for "all") to w, as CSV
// when csvOut is set.
func run(w io.Writer, fig string, csvOut bool) error {
	if csvOut && !csvFigures[fig] {
		return fmt.Errorf("-csv needs -fig to name one figure with a CSV form, not %q", fig)
	}
	want := func(name string) bool { return fig == "all" || fig == name }
	printed := false

	if want("table1") {
		fmt.Fprintln(w, figures.FormatTable1())
		printed = true
	}
	if want("9") {
		rows, err := figures.Fig9()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig9CSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFig9(rows))
		fmt.Fprintln(w, "  turning point A at 2^14 (SA sharing), B at 2^19 (rank row);")
		fmt.Fprintln(w, "  regions: <12.8 GBps below the DDR bus, >1842 GBps beyond internal bandwidth")
		fmt.Fprintln(w)
		printed = true
	}
	if want("10") {
		rows, err := figures.Fig10()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteComparisonCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatComparison("Fig. 10 — bitwise-operation speedup vs SIMD baseline", rows))
		printed = true
	}
	if want("11") {
		rows, err := figures.Fig11()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteComparisonCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatComparison("Fig. 11 — bitwise-operation energy saving vs SIMD baseline", rows))
		printed = true
	}
	if want("12") {
		rows, err := figures.Fig12()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig12CSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFig12(rows))
		printed = true
	}
	if want("13") {
		res, err := figures.Fig13()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig13CSV(w, res)
		}
		fmt.Fprintln(w, figures.FormatFig13(res))
		printed = true
	}
	if want("margins") {
		printMargins(w)
		printed = true
	}
	if want("ablation") {
		d, err := figures.DepthAblation()
		if err != nil {
			return err
		}
		m, err := figures.MuxAblation()
		if err != nil {
			return err
		}
		te, err := figures.TechAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatAblations(d, m, te))
		conc, err := figures.ConcurrencyAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatConcurrency(conc))
		printed = true
	}
	if want("extended") {
		rows, err := figures.Extended()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatExtended(rows))
		printed = true
	}
	if want("faults") {
		rows, err := figures.FaultSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFaultSweepCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFaultSweep(rows))
		printed = true
	}
	if want("replication") {
		rows, err := figures.ReplicationSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteReplicationCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatReplicationSweep(rows))
		printed = true
	}
	if want("ecc") {
		rows, err := figures.ECCSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteECCSweepCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatECCSweep(rows))
		printed = true
	}
	if want("headroom") {
		rows, err := figures.HeadroomSweep(figures.DefaultFaultRates, figures.DefaultHeadroomConcurrency)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteHeadroomCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatHeadroom(rows))
		printed = true
	}
	if want("batch") {
		rows, err := figures.BatchSweep(figures.DefaultBatchKs)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteBatchCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatBatch(rows))
		printed = true
	}
	if want("techcompare") {
		rows, err := figures.TechCompare()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteTechCompareCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatTechCompare(rows))
		printed = true
	}
	if !printed {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// printMargins reports the sensing-margin analysis behind the paper's
// multi-row claims (the Fig. 5/6 design-space content).
func printMargins(w io.Writer) {
	cfg := analog.DefaultSenseConfig()
	fmt.Fprintln(w, "Sensing margins (worst case, 4σ variation, 5% SA offset tolerance)")
	for _, p := range nvm.All() {
		orMax, err := analog.MaxORRows(cfg, p, 512)
		if err != nil {
			fmt.Fprintf(w, "  %-9s %v\n", p.Tech, err)
			continue
		}
		andMax, err := analog.MaxANDRows(cfg, p, 16)
		if err != nil {
			fmt.Fprintf(w, "  %-9s %v\n", p.Tech, err)
			continue
		}
		fmt.Fprintf(w, "  %-9s ON/OFF %6.1f  analog OR depth %3d  AND depth %d  architectural cap %d\n",
			p.Tech, p.Cell.OnOffRatio(), orMax, andMax, p.MaxOpenRows)
		for _, n := range []int{2, 8, 32, 128} {
			m := analog.ORMargin(cfg, p.Cell, n)
			fmt.Fprintf(w, "      %3d-row OR margin %+.3f\n", n, m)
		}
	}
	fmt.Fprintln(w)
	printReliability(w, cfg)
}

// printReliability reports the PCM drift/temperature sensitivity of the
// multi-row margins (an extension beyond the paper's fixed-condition
// analysis).
func printReliability(w io.Writer, cfg analog.SenseConfig) {
	p := nvm.Get(nvm.PCM)
	fmt.Fprintln(w, "PCM reliability sweeps (128-row OR margin / depth)")
	drift, err := analog.DriftSweep(cfg, p, []float64{1, 1e3, 1e6, 1e8})
	if err != nil {
		fmt.Fprintln(w, "  drift sweep:", err)
		return
	}
	for _, pt := range drift {
		fmt.Fprintf(w, "  drift %8.0es:  ON/OFF %7.0f  margin %+.3f  depth %3d\n",
			pt.Condition, pt.Ratio, pt.Margin128, pt.Depth)
	}
	temps, err := analog.TemperatureSweep(cfg, p, []float64{0, 25, 50, 85})
	if err != nil {
		fmt.Fprintln(w, "  temperature sweep:", err)
		return
	}
	for _, pt := range temps {
		fmt.Fprintf(w, "  +%3.0f°C:          ON/OFF %7.1f  margin %+.3f  depth %3d\n",
			pt.Condition, pt.Ratio, pt.Margin128, pt.Depth)
	}
	fmt.Fprintln(w)
}
