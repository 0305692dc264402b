package figures

import (
	"strings"
	"testing"

	"pinatubo/internal/workload"
)

func TestExtendedWorkloads(t *testing.T) {
	rows, err := Extended()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d extended workloads", len(rows))
	}
	for _, r := range rows {
		// Pinatubo-128 accelerates the bitwise phase on both domains...
		if r.Speedup["Pinatubo-128"] < 10 {
			t.Errorf("%s: Pinatubo-128 bitwise speedup %.1fx implausibly low",
				r.Workload, r.Speedup["Pinatubo-128"])
		}
		// ...never slows the whole application down, and stays under the
		// Ideal bound.
		for name, v := range r.Overall {
			if v < 0.99 {
				t.Errorf("%s: %s overall %.3fx — slowdown", r.Workload, name, v)
			}
			if v > r.IdealOverall*1.0001 {
				t.Errorf("%s: %s overall %.3fx exceeds ideal %.3fx",
					r.Workload, name, v, r.IdealOverall)
			}
		}
		// Amdahl bound sanity: the segmentation stream is mask-build bound.
		if r.Workload == "segmentation" && r.IdealOverall > 1.2 {
			t.Errorf("segmentation ideal %.3fx — CPU mask building should dominate", r.IdealOverall)
		}
	}
	s := FormatExtended(rows)
	if !strings.Contains(s, "kmers") || !strings.Contains(s, "segmentation") {
		t.Error("format incomplete")
	}
	checkGolden(t, "extended.txt", s)
}

func TestExtendedTracesValid(t *testing.T) {
	km, err := KmerTrace()
	if err != nil {
		t.Fatal(err)
	}
	sg, err := SegmentationTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*workload.Trace{km, sg} {
		if len(tr.Ops) == 0 || tr.Other.Seconds <= 0 {
			t.Errorf("%s: empty trace", tr.Name)
		}
		for i, op := range tr.Ops {
			if err := op.Validate(); err != nil {
				t.Fatalf("%s op %d: %v", tr.Name, i, err)
			}
		}
	}
}
