package figures

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestBatchSweep runs the full default sweep and pins every row's
// simulated sequential time and makespan to the nanosecond. The sweep is
// fault-free, so both come out of the timing model exactly; any change to
// a command's duration or to the scheduler's overlap moves a pin.
func TestBatchSweep(t *testing.T) {
	want := []struct {
		k                    int
		sequential, makespan time.Duration
	}{
		{1, 616, 616},
		{2, 1233, 799},
		{4, 2466, 1202},
		{8, 4933, 2022},
		{16, 9867, 3662},
	}
	rows, err := BatchSweep(DefaultBatchKs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.K != w.k || r.Sequential != w.sequential || r.Makespan != w.makespan {
			t.Errorf("k=%d: sequential %v makespan %v, want k=%d sequential %v makespan %v",
				r.K, r.Sequential, r.Makespan, w.k, w.sequential, w.makespan)
		}
		if !r.PlanMatch {
			t.Errorf("k=%d: batch makespan %v != plan %v", r.K, r.Makespan, r.PlanMakespan)
		}
		if r.Shards != r.K {
			t.Errorf("k=%d: shards = %d", r.K, r.Shards)
		}
		if i > 0 && r.Speedup <= rows[i-1].Speedup {
			t.Errorf("speedup not increasing: k=%d %.3f, k=%d %.3f",
				rows[i-1].K, rows[i-1].Speedup, r.K, r.Speedup)
		}
	}

	text := FormatBatch(rows)
	if !strings.Contains(text, "plan match") || strings.Contains(text, "MISMATCH") {
		t.Errorf("unexpected format output:\n%s", text)
	}
	var buf bytes.Buffer
	if err := WriteBatchCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Errorf("CSV lines = %d, want %d", lines, len(rows)+1)
	}
}
