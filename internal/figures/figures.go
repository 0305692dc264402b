package figures

import (
	"fmt"
	"sort"
	"strings"

	"pinatubo/internal/area"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// --- Fig. 9: Pinatubo OR throughput ---

// Fig9Row is one point of the throughput sweep.
type Fig9Row struct {
	LenLog int     // log2 of the bit-vector length
	Rows   int     // operands per one-step OR
	GBps   float64 // operand data processed per second
	Region string  // "below-DDR-bus" / "internal" / "beyond-internal"
}

// Fig9 sweeps bit-vector lengths 2^10..2^20 for one-step OR depths
// 2..128, reproducing the paper's throughput plot including the two
// turning points (A at 2^14: SA sharing; B at 2^19: rank row capacity)
// and the three bandwidth regions.
func Fig9() ([]Fig9Row, error) { return Fig9Tech(nvm.PCM) }

// Fig9Tech is the Fig. 9 sweep on an arbitrary NVM technology. Depths
// beyond the technology's sensing margin are clamped (STT-MRAM runs the
// whole sweep at its 2-row cap, so its curves collapse onto one line —
// the visual form of the paper's technology argument).
func Fig9Tech(tech nvm.Tech) ([]Fig9Row, error) {
	eng, err := pimrt.NewEngine(tech, 128)
	if err != nil {
		return nil, err
	}
	const (
		ddrBusGBps = 12.8 // one DDR3-1600 x64 channel
	)
	// Internal bandwidth: the most a conventional rank can stream out of
	// its arrays — the sense width per tCL, with every bank active.
	geo := memarch.Default()
	tcl := nvm.Get(tech).Timing.TCL
	internalGBps := float64(geo.SenseWidthBits()) / 8 / tcl / 1e9 * float64(geo.BanksPerChip)

	var rows []Fig9Row
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		if n > eng.MaxRows() {
			n = eng.MaxRows() // clamp: the engine chains beyond its depth
		}
		for lenLog := 10; lenLog <= 20; lenLog++ {
			bits := 1 << lenLog
			cost, err := eng.OpCost(workload.OpSpec{
				Op: sense.OpOR, Operands: n, Bits: bits,
				Placement: workload.PlaceIntra,
			})
			if err != nil {
				return nil, err
			}
			gbps := float64(n) * float64(bits) / 8 / cost.Seconds / 1e9
			region := "internal"
			switch {
			case gbps < ddrBusGBps:
				region = "below-DDR-bus"
			case gbps > internalGBps:
				region = "beyond-internal"
			}
			rows = append(rows, Fig9Row{LenLog: lenLog, Rows: n, GBps: gbps, Region: region})
		}
	}
	return rows, nil
}

// FormatFig9 renders the sweep as an aligned table, one line per length,
// one column per OR depth.
func FormatFig9(rows []Fig9Row) string {
	depths := []int{2, 4, 8, 16, 32, 64, 128}
	byKey := map[[2]int]Fig9Row{}
	lens := map[int]bool{}
	for _, r := range rows {
		byKey[[2]int{r.LenLog, r.Rows}] = r
		lens[r.LenLog] = true
	}
	var lenLogs []int
	for l := range lens {
		lenLogs = append(lenLogs, l)
	}
	sort.Ints(lenLogs)

	var sb strings.Builder
	sb.WriteString("Fig. 9 — Pinatubo OR throughput (GBps) vs bit-vector length\n")
	sb.WriteString("len\\rows")
	for _, d := range depths {
		fmt.Fprintf(&sb, "%10d", d)
	}
	sb.WriteString("\n")
	for _, l := range lenLogs {
		fmt.Fprintf(&sb, "2^%-6d", l)
		for _, d := range depths {
			if r, ok := byKey[[2]int{l, d}]; ok {
				fmt.Fprintf(&sb, "%10.1f", r.GBps)
			} else {
				fmt.Fprintf(&sb, "%10s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// --- Figs. 10 & 11: bitwise speedup and energy saving vs SIMD ---

// ComparisonRow is one workload's results across engines.
type ComparisonRow struct {
	Group    string
	Workload string
	// Values maps engine name to the metric (speedup or saving vs SIMD).
	Values map[string]float64
}

// comparison runs all traces on all engines and extracts a metric.
func comparison(metric func(r, base workload.RunResult) float64) ([]ComparisonRow, error) {
	engines, err := Engines()
	if err != nil {
		return nil, err
	}
	traces, err := AllTraces()
	if err != nil {
		return nil, err
	}
	var rows []ComparisonRow
	for _, nt := range traces {
		base, err := nt.Trace.Run(engines.SIMD)
		if err != nil {
			return nil, fmt.Errorf("%s on SIMD: %w", nt.Trace.Name, err)
		}
		row := ComparisonRow{Group: nt.Group, Workload: nt.Trace.Name, Values: map[string]float64{}}
		for _, e := range engines.Compared() {
			res, err := nt.Trace.Run(e)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", nt.Trace.Name, e.Name(), err)
			}
			row.Values[e.Name()] = metric(res, base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10 returns the bitwise-operation speedup of every engine over the
// SIMD baseline on all 11 workloads.
func Fig10() ([]ComparisonRow, error) {
	return comparison(func(r, base workload.RunResult) float64 { return r.Speedup(base) })
}

// Fig11 returns the bitwise-operation energy saving over SIMD.
func Fig11() ([]ComparisonRow, error) {
	return comparison(func(r, base workload.RunResult) float64 { return r.EnergySaving(base) })
}

// EngineOrder is the column order of Figs. 10-12.
var EngineOrder = []string{"S-DRAM", "AC-PIM", "Pinatubo-2", "Pinatubo-128"}

// Gmeans computes the geometric mean per engine across rows.
func Gmeans(rows []ComparisonRow) map[string]float64 {
	out := map[string]float64{}
	for _, name := range EngineOrder {
		var vals []float64
		for _, r := range rows {
			if v, ok := r.Values[name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[name] = workload.Gmean(vals)
		}
	}
	return out
}

// FormatComparison renders a Fig. 10/11-style table with a gmean row.
func FormatComparison(title string, rows []ComparisonRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-8s %-10s", "group", "workload")
	for _, e := range EngineOrder {
		fmt.Fprintf(&sb, "%14s", e)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-10s", r.Group, r.Workload)
		for _, e := range EngineOrder {
			fmt.Fprintf(&sb, "%14.1f", r.Values[e])
		}
		sb.WriteString("\n")
	}
	g := Gmeans(rows)
	fmt.Fprintf(&sb, "%-8s %-10s", "", "gmean")
	for _, e := range EngineOrder {
		fmt.Fprintf(&sb, "%14.1f", g[e])
	}
	sb.WriteString("\n")
	return sb.String()
}

// --- Fig. 12: overall application speedup and energy ---

// Fig12Row is one application workload's overall (whole-program) results.
type Fig12Row struct {
	Group    string
	Workload string
	// Speedup and EnergySaving map engine name (incl. "Ideal") to the
	// overall ratio vs SIMD.
	Speedup      map[string]float64
	EnergySaving map[string]float64
}

// Fig12 returns overall speedup/energy for the Graph and Fastbit
// applications, including the Ideal (free bitwise ops) legend.
func Fig12() ([]Fig12Row, error) {
	engines, err := Engines()
	if err != nil {
		return nil, err
	}
	traces, err := AppTraces()
	if err != nil {
		return nil, err
	}
	all := append(engines.Compared(), workload.Ideal{})
	var rows []Fig12Row
	for _, nt := range traces {
		base, err := nt.Trace.Run(engines.SIMD)
		if err != nil {
			return nil, err
		}
		row := Fig12Row{
			Group:        nt.Group,
			Workload:     nt.Trace.Name,
			Speedup:      map[string]float64{},
			EnergySaving: map[string]float64{},
		}
		for _, e := range all {
			res, err := nt.Trace.Run(e)
			if err != nil {
				return nil, err
			}
			row.Speedup[e.Name()] = res.OverallSpeedup(base)
			row.EnergySaving[e.Name()] = res.OverallEnergySaving(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Order is the engine order of Fig. 12, ending with Ideal.
var Fig12Order = append(append([]string{}, EngineOrder...), "Ideal")

// Fig12Gmeans returns the per-engine gmean of a Fig. 12 metric over rows,
// optionally filtered to one group ("" = all).
func Fig12Gmeans(rows []Fig12Row, group string, energyNotSpeed bool) map[string]float64 {
	out := map[string]float64{}
	for _, name := range Fig12Order {
		var vals []float64
		for _, r := range rows {
			if group != "" && r.Group != group {
				continue
			}
			m := r.Speedup
			if energyNotSpeed {
				m = r.EnergySaving
			}
			if v, ok := m[name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[name] = workload.Gmean(vals)
		}
	}
	return out
}

// FormatFig12 renders the overall speedup and energy tables.
func FormatFig12(rows []Fig12Row) string {
	var sb strings.Builder
	for _, metric := range []struct {
		title  string
		energy bool
	}{{"Fig. 12a — overall speedup vs SIMD", false}, {"Fig. 12b — overall energy saving vs SIMD", true}} {
		sb.WriteString(metric.title + "\n")
		fmt.Fprintf(&sb, "%-8s %-12s", "group", "workload")
		for _, e := range Fig12Order {
			fmt.Fprintf(&sb, "%14s", e)
		}
		sb.WriteString("\n")
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-8s %-12s", r.Group, r.Workload)
			for _, e := range Fig12Order {
				m := r.Speedup
				if metric.energy {
					m = r.EnergySaving
				}
				fmt.Fprintf(&sb, "%14.3f", m[e])
			}
			sb.WriteString("\n")
		}
		g := Fig12Gmeans(rows, "", metric.energy)
		fmt.Fprintf(&sb, "%-8s %-12s", "", "gmean")
		for _, e := range Fig12Order {
			fmt.Fprintf(&sb, "%14.3f", g[e])
		}
		sb.WriteString("\n\n")
	}
	return sb.String()
}

// --- Fig. 13: area overhead ---

// Fig13Result bundles the area comparison.
type Fig13Result struct {
	PinatuboFraction float64
	ACPIMFraction    float64
	Breakdown        []area.BreakdownEntry
}

// Fig13 computes the area overhead comparison and breakdown.
func Fig13() (*Fig13Result, error) {
	geo := memarch.Default()
	tech := nvm.Get(nvm.PCM)
	params := area.DefaultParams()
	o, err := area.Pinatubo(geo, tech, params)
	if err != nil {
		return nil, err
	}
	ac, err := area.ACPIM(geo, tech, params)
	if err != nil {
		return nil, err
	}
	return &Fig13Result{
		PinatuboFraction: o.TotalFraction(),
		ACPIMFraction:    ac,
		Breakdown:        o.Breakdown(),
	}, nil
}

// FormatFig13 renders the area comparison.
func FormatFig13(r *Fig13Result) string {
	var sb strings.Builder
	sb.WriteString("Fig. 13 — area overhead on the PCM chip\n")
	fmt.Fprintf(&sb, "  Pinatubo total: %.2f%%   (paper: 0.9%%)\n", r.PinatuboFraction*100)
	fmt.Fprintf(&sb, "  AC-PIM total:   %.2f%%   (paper: 6.4%%)\n", r.ACPIMFraction*100)
	sb.WriteString("  breakdown:\n")
	for _, e := range r.Breakdown {
		fmt.Fprintf(&sb, "    %-10s %.3f%%\n", e.Name, e.Fraction*100)
	}
	return sb.String()
}

// --- Table 1 ---

// FormatTable1 renders the benchmark/dataset table.
func FormatTable1() string {
	var sb strings.Builder
	sb.WriteString("Table 1 — benchmarks and data sets\n")
	sb.WriteString("  Vector:   pure vector OR operations\n")
	for _, w := range VectorWorkloads() {
		mode := "sequential"
		if w.Random {
			mode = "random"
		}
		fmt.Fprintf(&sb, "    %-10s 2^%d-bit vectors, 2^%d vectors, 2^%d-row OR, %s\n",
			w.Name, w.LenLog, w.CountLog, w.RowsLog, mode)
	}
	sb.WriteString("  Graph:    bitmap-based BFS (synthetic stand-ins, see DESIGN.md)\n")
	sb.WriteString("    dblp      dense power-law (RMAT), single tight component\n")
	sb.WriteString("    eswiki    loose Erdős–Rényi, many components\n")
	sb.WriteString("    amazon    loose Erdős–Rényi, many components\n")
	sb.WriteString("  Database: bitmap-index range queries (FastBit-style, synthetic STAR events)\n")
	sb.WriteString("    240 / 480 / 720 query batches\n")
	return sb.String()
}
