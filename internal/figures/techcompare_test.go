package figures

import (
	"bytes"
	"strings"
	"testing"
)

func TestTechCompare(t *testing.T) {
	rows, err := TechCompare()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(techCompareTechs) * len(techCompareOps); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byKey := map[string]TechCompareRow{}
	for _, r := range rows {
		if r.Latency <= 0 || r.GBps <= 0 || r.PJPerBit <= 0 {
			t.Errorf("%s %s: non-positive figures %+v", r.Tech, r.Op, r)
		}
		byKey[r.Tech+"/"+r.Op] = r
	}
	// The table's honesty checks: DRAM's staged TRA XOR must cost more
	// than its AND (3 activations and 11 copies vs 1 and 3), and a
	// 4-deep OR must cost the pairwise technologies more than a 2-deep
	// one while the wide-OR technologies pay only one more operand.
	if d, a := byKey["DRAM/xor"], byKey["DRAM/and"]; d.Latency <= a.Latency || d.PJPerBit <= a.PJPerBit {
		t.Errorf("DRAM xor (%v, %.2f pJ/bit) not costlier than and (%v, %.2f pJ/bit)",
			d.Latency, d.PJPerBit, a.Latency, a.PJPerBit)
	}
	for _, tech := range []string{"STT-MRAM", "DRAM"} {
		if deep, shallow := byKey[tech+"/or4"], byKey[tech+"/or2"]; deep.Latency < 2*shallow.Latency {
			t.Errorf("%s or4 latency %v < 2x or2 %v — chaining not priced", tech, deep.Latency, shallow.Latency)
		}
	}
	if deep, shallow := byKey["PCM/or4"], byKey["PCM/or2"]; deep.Latency >= 2*shallow.Latency {
		t.Errorf("PCM or4 latency %v >= 2x or2 %v — multi-row OR lost its one-step advantage",
			deep.Latency, shallow.Latency)
	}

	text := FormatTechCompare(rows)
	for _, wantStr := range []string{"PCM", "STT-MRAM", "ReRAM", "DRAM", "xor", "vs PCM"} {
		if !strings.Contains(text, wantStr) {
			t.Errorf("formatted table missing %q:\n%s", wantStr, text)
		}
	}
	var buf bytes.Buffer
	if err := WriteTechCompareCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Errorf("CSV lines = %d, want %d", lines, len(rows)+1)
	}
}
