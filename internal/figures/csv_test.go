package figures

import (
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWriteFig9CSV(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig9CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	// 11 lengths × 7 depths + header.
	if len(recs) != 11*7+1 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][0] != "len_log2" || len(recs[1]) != 4 {
		t.Errorf("header/shape wrong: %v", recs[0])
	}
	checkGolden(t, "fig9.csv", sb.String())
}

func TestWriteComparisonCSV(t *testing.T) {
	rows := fig10(t)
	var sb strings.Builder
	if err := WriteComparisonCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 12 { // 11 workloads + header
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][2] != "S-DRAM" || recs[0][5] != "Pinatubo-128" {
		t.Errorf("header %v", recs[0])
	}
	checkGolden(t, "fig10.csv", sb.String())
	sb.Reset()
	if err := WriteComparisonCSV(&sb, fig11(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11.csv", sb.String())
}

func TestWriteFig12CSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteFig12CSV(&sb, fig12(t)); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 6*2+1 { // 6 workloads × 2 metrics + header
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][len(recs[0])-1] != "Ideal" {
		t.Errorf("header %v", recs[0])
	}
	checkGolden(t, "fig12.csv", sb.String())
}

func TestWriteFig13CSV(t *testing.T) {
	res, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig13CSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 2+5+1 { // totals + 5 breakdown entries + header
		t.Fatalf("%d records", len(recs))
	}
	if recs[1][0] != "pinatubo-total" {
		t.Errorf("first row %v", recs[1])
	}
}
