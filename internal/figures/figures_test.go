package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pinatubo/internal/nvm"
	"pinatubo/internal/workload"
)

// The figure tests assert the paper's qualitative claims — who wins, where
// the crossovers fall. The engine-priced figures' text and CSV are also
// pinned byte for byte against testdata (checkGolden), so a change to how
// an op is priced that moves a printed digit fails here.

// checkGolden compares got with the file testdata/name byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func fig9Map(t *testing.T) map[[2]int]Fig9Row {
	t.Helper()
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	m := map[[2]int]Fig9Row{}
	for _, r := range rows {
		m[[2]int{r.LenLog, r.Rows}] = r
	}
	return m
}

func TestFig9MonotoneInDepth(t *testing.T) {
	m := fig9Map(t)
	for lenLog := 10; lenLog <= 20; lenLog++ {
		prev := 0.0
		for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
			r := m[[2]int{lenLog, n}]
			if r.GBps <= prev {
				t.Errorf("len 2^%d: %d-row OR (%.1f GBps) not faster than previous depth (%.1f)",
					lenLog, n, r.GBps, prev)
			}
			prev = r.GBps
		}
	}
}

func TestFig9TurningPointA(t *testing.T) {
	// Below 2^14 bits throughput grows ~linearly with length; above it the
	// column-group serialisation bends the curve (point A).
	m := fig9Map(t)
	for _, n := range []int{2, 128} {
		growthBefore := m[[2]int{14, n}].GBps / m[[2]int{13, n}].GBps
		growthAfter := m[[2]int{16, n}].GBps / m[[2]int{15, n}].GBps
		if growthBefore < 1.9 {
			t.Errorf("n=%d: growth below point A is %.2f, want ~2 (latency-flat region)", n, growthBefore)
		}
		if growthAfter >= growthBefore-0.05 {
			t.Errorf("n=%d: no slope drop at point A: %.2f then %.2f", n, growthBefore, growthAfter)
		}
	}
}

func TestFig9TurningPointB(t *testing.T) {
	// Beyond the 2^19-bit rank row, throughput flattens completely.
	m := fig9Map(t)
	for _, n := range []int{2, 128} {
		at19 := m[[2]int{19, n}].GBps
		at20 := m[[2]int{20, n}].GBps
		if ratio := at20 / at19; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("n=%d: throughput changed %.2fx across point B, want flat", n, ratio)
		}
	}
}

func TestFig9Regions(t *testing.T) {
	m := fig9Map(t)
	if r := m[[2]int{10, 2}]; r.Region != "below-DDR-bus" {
		t.Errorf("short 2-row OR region %q, want below-DDR-bus (%.2f GBps)", r.Region, r.GBps)
	}
	if r := m[[2]int{19, 2}]; r.Region != "internal" {
		t.Errorf("long 2-row OR region %q want internal (%.2f GBps)", r.Region, r.GBps)
	}
	if r := m[[2]int{19, 128}]; r.Region != "beyond-internal" {
		t.Errorf("128-row OR region %q want beyond-internal (%.2f GBps) — DRAM can never reach this",
			r.Region, r.GBps)
	}
}

func TestFig9Format(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	s := FormatFig9(rows)
	if !strings.Contains(s, "2^19") || !strings.Contains(s, "128") {
		t.Errorf("formatted table incomplete:\n%s", s)
	}
	checkGolden(t, "fig9.txt", s)
}

// figCache runs each expensive comparison once for all dependent tests.
var figCache struct {
	f10, f11 []ComparisonRow
	f12      []Fig12Row
}

func fig10(t *testing.T) []ComparisonRow {
	t.Helper()
	if figCache.f10 == nil {
		rows, err := Fig10()
		if err != nil {
			t.Fatal(err)
		}
		figCache.f10 = rows
	}
	return figCache.f10
}

func fig11(t *testing.T) []ComparisonRow {
	t.Helper()
	if figCache.f11 == nil {
		rows, err := Fig11()
		if err != nil {
			t.Fatal(err)
		}
		figCache.f11 = rows
	}
	return figCache.f11
}

func fig12(t *testing.T) []Fig12Row {
	t.Helper()
	if figCache.f12 == nil {
		rows, err := Fig12()
		if err != nil {
			t.Fatal(err)
		}
		figCache.f12 = rows
	}
	return figCache.f12
}

func TestFig10Shape(t *testing.T) {
	rows := fig10(t)
	if len(rows) != 11 {
		t.Fatalf("%d workloads, want 11 (Table 1)", len(rows))
	}
	g := Gmeans(rows)
	// Pinatubo-128 wins overall, by a wide margin.
	if g["Pinatubo-128"] < 2*g["S-DRAM"] {
		t.Errorf("Pinatubo-128 gmean %.1f should be well above S-DRAM %.1f (paper: 22x)",
			g["Pinatubo-128"], g["S-DRAM"])
	}
	if g["Pinatubo-128"] < 20 {
		t.Errorf("Pinatubo-128 gmean speedup %.1f implausibly low", g["Pinatubo-128"])
	}
	for _, r := range rows {
		// Every engine beats the CPU baseline on every workload, except
		// chained Pinatubo-2 which may only break even on graph workloads.
		for name, v := range r.Values {
			if v < 0.9 {
				t.Errorf("%s on %s: %.2fx — slower than the CPU", name, r.Workload, v)
			}
		}
		// AC-PIM is slower than Pinatubo(-128) in every single case.
		if r.Values["AC-PIM"] >= r.Values["Pinatubo-128"] {
			t.Errorf("%s: AC-PIM (%.1f) not slower than Pinatubo-128 (%.1f)",
				r.Workload, r.Values["AC-PIM"], r.Values["Pinatubo-128"])
		}
	}
}

func TestFig10RandomPlacementCollapse(t *testing.T) {
	// 14-16-7r: random placement demotes ops to inter-subarray/bank, so
	// Pinatubo-128 degenerates to roughly Pinatubo-2 (paper's observation).
	for _, r := range fig10(t) {
		if r.Workload != "14-16-7r" {
			continue
		}
		ratio := r.Values["Pinatubo-128"] / r.Values["Pinatubo-2"]
		if ratio > 3 {
			t.Errorf("random workload: Pinatubo-128/Pinatubo-2 = %.1f, want ~1", ratio)
		}
		// And far below its sequential twin.
		for _, seq := range fig10(t) {
			if seq.Workload == "14-16-7s" {
				if r.Values["Pinatubo-128"] > seq.Values["Pinatubo-128"]/5 {
					t.Errorf("random placement should collapse the multi-row advantage: %0.1f vs %0.1f",
						r.Values["Pinatubo-128"], seq.Values["Pinatubo-128"])
				}
			}
		}
		return
	}
	t.Fatal("14-16-7r row missing")
}

func TestFig10MultiRowDominatesOnSequential(t *testing.T) {
	for _, r := range fig10(t) {
		if r.Workload == "19-16-7s" {
			if r.Values["Pinatubo-128"] < 10*r.Values["Pinatubo-2"] {
				t.Errorf("128-row requests: Pinatubo-128 (%.0f) should crush Pinatubo-2 (%.0f)",
					r.Values["Pinatubo-128"], r.Values["Pinatubo-2"])
			}
			return
		}
	}
	t.Fatal("19-16-7s row missing")
}

func TestFig11ACPIMSavesLeast(t *testing.T) {
	// Paper: "AC-PIM never has a chance to save more energy than any of
	// the other three solutions" — analog computing beats digital.
	for _, r := range fig11(t) {
		ac := r.Values["AC-PIM"]
		for _, other := range []string{"S-DRAM", "Pinatubo-2", "Pinatubo-128"} {
			if ac > r.Values[other]*1.001 {
				t.Errorf("%s: AC-PIM saving %.1f exceeds %s %.1f",
					r.Workload, ac, other, r.Values[other])
			}
		}
	}
}

func TestFig11Pinatubo128Best(t *testing.T) {
	g := Gmeans(fig11(t))
	for _, other := range []string{"S-DRAM", "AC-PIM", "Pinatubo-2"} {
		if g["Pinatubo-128"] < g[other] {
			t.Errorf("Pinatubo-128 gmean energy saving %.0f below %s %.0f",
				g["Pinatubo-128"], other, g[other])
		}
	}
	if g["Pinatubo-128"] < 100 {
		t.Errorf("Pinatubo-128 gmean energy saving %.0f implausibly low", g["Pinatubo-128"])
	}
}

func TestFig11AllSave(t *testing.T) {
	for _, r := range fig11(t) {
		for name, v := range r.Values {
			if v < 1 {
				t.Errorf("%s on %s: energy saving %.2f < 1", name, r.Workload, v)
			}
		}
	}
}

func TestComparisonFormat(t *testing.T) {
	s := FormatComparison("Fig. 10 — bitwise-operation speedup vs SIMD baseline", fig10(t))
	if !strings.Contains(s, "gmean") || !strings.Contains(s, "Pinatubo-128") {
		t.Errorf("format incomplete:\n%s", s)
	}
	checkGolden(t, "fig10.txt", s)
	checkGolden(t, "fig11.txt", FormatComparison("Fig. 11 — bitwise-operation energy saving vs SIMD baseline", fig11(t)))
}

func TestFig12Shape(t *testing.T) {
	rows := fig12(t)
	if len(rows) != 6 {
		t.Fatalf("%d app workloads, want 6", len(rows))
	}
	for _, r := range rows {
		ideal := r.Speedup["Ideal"]
		p128 := r.Speedup["Pinatubo-128"]
		// Pinatubo almost achieves the ideal acceleration (paper).
		if p128 < 0.9*ideal {
			t.Errorf("%s: Pinatubo-128 %.3f far from ideal %.3f", r.Workload, p128, ideal)
		}
		if p128 > ideal*1.0001 {
			t.Errorf("%s: Pinatubo-128 %.3f exceeds ideal %.3f", r.Workload, p128, ideal)
		}
		// Overall gains are bounded by the bitwise fraction: single digits.
		if ideal > 10 {
			t.Errorf("%s: ideal speedup %.2f — bitwise fraction unrealistically high", r.Workload, ideal)
		}
		for name, v := range r.Speedup {
			if v < 0.9 {
				t.Errorf("%s: %s overall speedup %.3f < 1", r.Workload, name, v)
			}
		}
	}
	// dblp is the best graph workload; loose graphs gain little.
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	if byName["dblp"].Speedup["Pinatubo-128"] <= byName["eswiki"].Speedup["Pinatubo-128"] {
		t.Error("dblp should out-gain the loose eswiki")
	}
	if v := byName["eswiki"].Speedup["Pinatubo-128"]; v > 1.2 {
		t.Errorf("loose graph gained %.2f, paper says ~1.0x", v)
	}
	if v := byName["dblp"].Speedup["Pinatubo-128"]; v < 1.15 || v > 1.8 {
		t.Errorf("dblp overall speedup %.2f outside the paper band (1.37x)", v)
	}
	// Database workloads land near the paper's 1.29x.
	if v := byName["fastbit-240"].Speedup["Pinatubo-128"]; v < 1.1 || v > 1.5 {
		t.Errorf("fastbit overall speedup %.2f outside the paper band (1.29x)", v)
	}
}

func TestFig12Gmeans(t *testing.T) {
	rows := fig12(t)
	sp := Fig12Gmeans(rows, "Graph", false)
	if sp["Pinatubo-128"] < 1.05 || sp["Pinatubo-128"] > 1.4 {
		t.Errorf("graph gmean speedup %.3f outside paper band (1.15x)", sp["Pinatubo-128"])
	}
	en := Fig12Gmeans(rows, "", true)
	if en["Pinatubo-128"] < 1.05 {
		t.Errorf("overall energy gmean %.3f below paper band (~1.11x)", en["Pinatubo-128"])
	}
	s := FormatFig12(rows)
	if !strings.Contains(s, "Ideal") {
		t.Error("Fig12 format missing Ideal column")
	}
	checkGolden(t, "fig12.txt", s)
}

func TestFig13MatchesPaper(t *testing.T) {
	r, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if r.PinatuboFraction < 0.007 || r.PinatuboFraction > 0.011 {
		t.Errorf("Pinatubo overhead %.4f outside 0.7..1.1%% (paper 0.9%%)", r.PinatuboFraction)
	}
	if r.ACPIMFraction < 0.05 || r.ACPIMFraction > 0.08 {
		t.Errorf("AC-PIM overhead %.4f outside 5..8%% (paper 6.4%%)", r.ACPIMFraction)
	}
	if s := FormatFig13(r); !strings.Contains(s, "inter-sub") {
		t.Error("Fig13 format missing breakdown")
	}
}

func TestTable1Format(t *testing.T) {
	s := FormatTable1()
	for _, want := range []string{"19-16-1s", "14-16-7r", "dblp", "720"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestVectorTraceShapes(t *testing.T) {
	// Sequential: almost everything intra. Random: almost nothing intra.
	seq, err := BuildVectorTrace(VectorWorkload{Name: "s", LenLog: 14, CountLog: 12, RowsLog: 7})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := BuildVectorTrace(VectorWorkload{Name: "r", LenLog: 14, CountLog: 12, RowsLog: 7, Random: true})
	if err != nil {
		t.Fatal(err)
	}
	intraShare := func(tr *workload.Trace) float64 {
		intra := 0
		for _, op := range tr.Ops {
			if op.Placement == workload.PlaceIntra && op.Groups == nil {
				intra++
			}
		}
		return float64(intra) / float64(len(tr.Ops))
	}
	if s := intraShare(seq); s < 0.5 {
		t.Errorf("sequential workload only %.0f%% intra", s*100)
	}
	if s := intraShare(rnd); s > 0.05 {
		t.Errorf("random workload %.0f%% intra, want ~0", s*100)
	}
	if len(seq.Ops) != 1<<5 {
		t.Errorf("sequential trace has %d ops, want 32 (2^12 vectors / 2^7)", len(seq.Ops))
	}
}

func TestEnginesConstruct(t *testing.T) {
	e, err := Engines()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, eng := range e.Compared() {
		names[eng.Name()] = true
	}
	for _, want := range EngineOrder {
		if !names[want] {
			t.Errorf("engine %s missing", want)
		}
	}
	if e.SIMD.Name() != "SIMD" {
		t.Error("baseline engine wrong")
	}
}

func TestFig9TechVariants(t *testing.T) {
	// ReRAM sweeps like PCM (faster timing, same depth); STT-MRAM's curves
	// collapse to the 2-row line.
	reram, err := Fig9Tech(nvm.ReRAM)
	if err != nil {
		t.Fatal(err)
	}
	stt, err := Fig9Tech(nvm.STTMRAM)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(rows []Fig9Row) float64 {
		best := 0.0
		for _, r := range rows {
			if r.GBps > best {
				best = r.GBps
			}
		}
		return best
	}
	if peak(reram) < 10000 {
		t.Errorf("ReRAM peak %.0f GBps — multi-row advantage missing", peak(reram))
	}
	if peak(stt) > 2000 {
		t.Errorf("STT-MRAM peak %.0f GBps — 2-row cap not applied", peak(stt))
	}
}
