package figures

import (
	"strings"
	"testing"

	"pinatubo/internal/nvm"
)

// The sweeps are expensive; run each once per test binary.
var ablCache struct {
	depth []DepthAblationRow
	mux   []MuxAblationRow
	tech  []TechAblationRow
}

func depthAbl(t *testing.T) []DepthAblationRow {
	t.Helper()
	if ablCache.depth == nil {
		rows, err := DepthAblation()
		if err != nil {
			t.Fatal(err)
		}
		ablCache.depth = rows
	}
	return ablCache.depth
}

func muxAbl(t *testing.T) []MuxAblationRow {
	t.Helper()
	if ablCache.mux == nil {
		rows, err := MuxAblation()
		if err != nil {
			t.Fatal(err)
		}
		ablCache.mux = rows
	}
	return ablCache.mux
}

func techAbl(t *testing.T) []TechAblationRow {
	t.Helper()
	if ablCache.tech == nil {
		rows, err := TechAblation()
		if err != nil {
			t.Fatal(err)
		}
		ablCache.tech = rows
	}
	return ablCache.tech
}

func TestDepthAblationMonotone(t *testing.T) {
	rows := depthAbl(t)
	if len(rows) != 7 || rows[0].Depth != 2 || rows[6].Depth != 128 {
		t.Fatalf("unexpected sweep shape: %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].GmeanSpeedup <= rows[i-1].GmeanSpeedup {
			t.Errorf("depth %d (%.1fx) not faster than depth %d (%.1fx)",
				rows[i].Depth, rows[i].GmeanSpeedup,
				rows[i-1].Depth, rows[i-1].GmeanSpeedup)
		}
	}
	// Even modest multi-row depth doubles the chained design's speedup.
	if rows[1].GmeanSpeedup < 1.5*rows[0].GmeanSpeedup {
		t.Errorf("depth 4 (%.1fx) should be >= 1.5x depth 2 (%.1fx)",
			rows[1].GmeanSpeedup, rows[0].GmeanSpeedup)
	}
}

func TestMuxAblationTradeoff(t *testing.T) {
	rows := muxAbl(t)
	if len(rows) != 4 {
		t.Fatalf("%d mux points", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		// Wider sharing (bigger mux) → slower ops...
		if rows[i].GBps128Row >= rows[i-1].GBps128Row {
			t.Errorf("mux %d:1 should be slower than %d:1",
				rows[i].MuxRatio, rows[i-1].MuxRatio)
		}
		// ...but cheaper add-on area (fewer SAs to modify).
		if rows[i].AreaFraction >= rows[i-1].AreaFraction {
			t.Errorf("mux %d:1 should cost less area than %d:1",
				rows[i].MuxRatio, rows[i-1].MuxRatio)
		}
	}
	// The paper's 32:1 point stays under ~1% area.
	for _, r := range rows {
		if r.MuxRatio == 32 && (r.AreaFraction < 0.007 || r.AreaFraction > 0.011) {
			t.Errorf("32:1 area %.4f drifted from the paper's 0.9%%", r.AreaFraction)
		}
	}
}

func TestTechAblation(t *testing.T) {
	rows := techAbl(t)
	byTech := map[nvm.Tech]TechAblationRow{}
	for _, r := range rows {
		byTech[r.Tech] = r
	}
	if byTech[nvm.PCM].Depth != 128 || byTech[nvm.ReRAM].Depth != 128 {
		t.Error("PCM/ReRAM should run at depth 128")
	}
	if byTech[nvm.STTMRAM].Depth != 2 {
		t.Errorf("STT-MRAM depth %d want 2 (sensing cap)", byTech[nvm.STTMRAM].Depth)
	}
	// The sensing cap dominates the faster MTJ array on multi-row work.
	if byTech[nvm.STTMRAM].GmeanSpeedup >= byTech[nvm.PCM].GmeanSpeedup {
		t.Errorf("STT-MRAM (%.1fx) should trail PCM (%.1fx) despite faster timing",
			byTech[nvm.STTMRAM].GmeanSpeedup, byTech[nvm.PCM].GmeanSpeedup)
	}
	for _, r := range rows {
		if r.GmeanSpeedup < 1 {
			t.Errorf("%v: Pinatubo slower than its own CPU baseline (%.2fx)", r.Tech, r.GmeanSpeedup)
		}
	}
}

func TestFormatAblations(t *testing.T) {
	s := FormatAblations(depthAbl(t), muxAbl(t), techAbl(t))
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C", "mux 32:1", "STT-MRAM"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	checkGolden(t, "ablation.txt", s)
}

func TestConcurrencyAblation(t *testing.T) {
	rows, err := ConcurrencyAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.OpsPerSec) != len(r.InFlight) {
			t.Fatalf("curve shape mismatch")
		}
		// Throughput must scale and never regress.
		for i := 1; i < len(r.OpsPerSec); i++ {
			if r.OpsPerSec[i] < r.OpsPerSec[i-1]*0.999 {
				t.Errorf("depth %d: throughput regressed at k=%d", r.Depth, r.InFlight[i])
			}
		}
		// The evaluation's Parallelism=4-per-channel assumption must be
		// conservative: 4 in-flight requests must gain >= 2x over 1.
		if gain := r.OpsPerSec[2] / r.OpsPerSec[0]; gain < 2 {
			t.Errorf("depth %d: k=4 gain %.2fx — the fixed parallelism oversells", r.Depth, gain)
		}
		if r.Saturate < 2 {
			t.Errorf("depth %d saturates at k=%d — no overlap at all?", r.Depth, r.Saturate)
		}
	}
	s := FormatConcurrency(rows)
	if !strings.Contains(s, "Ablation D") {
		t.Error("format missing title")
	}
	checkGolden(t, "concurrency.txt", s)
}
