package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pinatubo/internal/bitvec"
)

// smokeScale keeps every workload to a fraction of a second of measured work.
const smokeScale = 0.01

func runSmoke(t *testing.T, w Workload, seed int64, trace bool) Report {
	t.Helper()
	out := t.TempDir()
	rep, err := Run(w, Options{Seed: seed, Scale: smokeScale, Trace: trace, Out: out})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: outputs disagree with the reference: %v", w.Name, rep.Mismatches)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s: %d of %d calls failed", w.Name, rep.Failed, rep.Attempted)
	}
	return rep
}

func byName(ms []Metric) map[string]Metric {
	out := make(map[string]Metric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// The layer metrics each workload must report beyond the ones every
// workload reports.
var ownLayers = map[string][]string{
	"bitmap-apply":   {"apply.or.us", "apply.and.us", "apply.popcount.us", "apply.hit.us", "host.write.us", "host.read.us", "host.alloc.us", "sim_ns_per_op"},
	"frontier-churn": {"apply.or.us", "apply.and.us", "apply.xor.us", "apply.not.us", "apply.miss.us", "host.write.us", "host.read.us", "host.alloc.us", "host.free.us", "sim_ns_per_op"},
	"window-ecc":     {"batch.add.us", "batch.start.us", "batch.exec.us", "batch.wait.us", "chansim.makespan_ns", "host.write.us", "host.read.us", "sim_ns_per_op"},
	"serve-open":     {"serve.window_sim_p99_ns", "client.gen_late_p99_us", "sim_ns_per_op"},
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := runSmoke(t, w, 1, true)
			e2e := byName(rep.EndToEnd)
			for _, s := range endToEndSpecs {
				m, ok := e2e[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", s.name, m, s.unit)
				}
			}
			for _, name := range []string{"lat_p99_us", "fail_frac"} {
				if _, ok := e2e[name]; !ok {
					t.Errorf("no %s", name)
				}
			}
			layers := byName(rep.Layers)
			for _, s := range layerSpecs {
				m, ok := layers[s.name]
				if s.json && !ok {
					t.Errorf("per-layer %s missing", s.name)
				}
				if ok && m.Unit != s.unit {
					t.Errorf("per-layer %s: unit %s, want %s", s.name, m.Unit, s.unit)
				}
				// A time every workload reports must be measured, never a
				// placeholder zero (a smoke-sized phase may see no GC).
				if s.json && (s.unit == "us" || s.unit == "ms") && s.name != "gc.pause_ms" && !(m.Value > 0) {
					t.Errorf("per-layer %s = %v, want a measured time", s.name, m.Value)
				}
			}
			for _, name := range ownLayers[w.Name] {
				if _, ok := layers[name]; !ok {
					t.Errorf("per-layer %s missing", name)
				}
			}
			for _, traced := range []bool{false, true} {
				if _, err := rep.ResultLine(traced); err != nil {
					t.Errorf("result line (traced %v): %v", traced, err)
				}
			}
			if u := layers["trace.unattributed_frac"].Value; !(u >= 0 && u <= 1) {
				t.Errorf("trace.unattributed_frac = %v, want a share", u)
			}
		})
	}
}

// deterministicLayers are the layer metrics derived from the simulator's
// ledgers alone; for a closed loop they repeat exactly for a seed.
var deterministicLayers = []string{
	"cmdstream.hit_rate", "cmdstream.lookups_per_op",
	"pimrt.requests_per_op", "pimrt.verifies_per_op", "pimrt.retries_per_op",
	"pimrt.depth_reductions", "pimrt.fallbacks",
	"ecc.decodes_per_op", "ecc.corrected_bits_per_op", "fault.flips_per_op",
	"hw.activations_per_op", "hw.sense_steps_per_op", "hw.writebacks_per_op", "hw.bus_bits_per_op",
	"hw.intra_frac", "hw.inter_sub_frac", "hw.inter_bank_frac",
	"sim_ns_per_op", "sim_pj_per_bit",
	"batch.shards_per_window", "batch.pool_reuse_rate", "chansim.speedup", "chansim.makespan_ns",
}

func TestSameSeedRepeatsSimulatedMetrics(t *testing.T) {
	for _, name := range []string{"bitmap-apply", "frontier-churn", "window-ecc"} {
		w, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			a, b := runSmoke(t, w, 5, true), runSmoke(t, w, 5, true)
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d vs %d", a.Attempted, b.Attempted)
			}
			for _, sim := range []string{"sim_ns_per_op", "sim_pj_per_bit"} {
				x, y := byName(a.EndToEnd)[sim], byName(b.EndToEnd)[sim]
				if x.Value != y.Value || !(x.Value > 0) {
					t.Errorf("end-to-end %s: %v vs %v", sim, x.Value, y.Value)
				}
			}
			la, lb := byName(a.Layers), byName(b.Layers)
			for _, n := range deterministicLayers {
				if la[n].Value != lb[n].Value {
					t.Errorf("%s: %v vs %v", n, la[n].Value, lb[n].Value)
				}
			}
		})
	}
}

func TestNewSeedChangesInputs(t *testing.T) {
	b1, err := bitmapInputs(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := bitmapInputs(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b1.queries[0] == b2.queries[0] && b1.cols[0][0].Equal(b2.cols[0][0]) {
		t.Error("bitmap-apply: seeds 1 and 2 drew the same table and query")
	}
	if churnInputs(1)[0].x.Equal(churnInputs(2)[0].x) {
		t.Error("frontier-churn: seeds 1 and 2 drew the same vectors")
	}
	if eccInputs(1, 4096).initial[0][0].Equal(eccInputs(2, 4096).initial[0][0]) {
		t.Error("window-ecc: seeds 1 and 2 drew the same vectors")
	}
	if serveInputs(1)[0].initial[0].Equal(serveInputs(2)[0].initial[0]) {
		t.Error("serve-open: seeds 1 and 2 drew the same arenas")
	}
	// The same seed draws the same inputs.
	if !churnInputs(3)[7].want.Equal(churnInputs(3)[7].want) {
		t.Error("frontier-churn: one seed drew two inputs")
	}
}

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // NaN: refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, math.NaN()},
		{2000, 0.99, 1980},
		{20, 0.50, 10},
		{19, 0.50, math.NaN()},
		{21, 0.50, 11},
	} {
		got, err := percentile(samples(c.n), c.p)
		if math.IsNaN(c.want) {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", 100*c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.p, c.n, got, err, c.want)
		}
	}
}

func TestSpanSelfTimeAndUnattributed(t *testing.T) {
	spans := []span{
		{name: spanRun, parent: -1, start: 0, end: 100},
		{name: spanApplyOr, parent: 0, start: 10, end: 30},
		{name: spanBatchExec, parent: 0, start: 20, end: 50},    // overlaps the first child
		{name: spanHostRead, parent: 0, start: 90, end: 120},    // runs past the root
		{name: spanRef, parent: 1, start: 12, end: 15},          // grandchild
		{name: spanHostWrite, parent: -1, start: 200, end: 210}, // another root
	}
	self := selfTimes(spans)
	for i, want := range []int64{50, 17, 30, 30, 3, 10} {
		if self[i] != want {
			t.Errorf("span %d self time %d, want %d", i, self[i], want)
		}
	}
	p := profile(spans, 0)
	if p.unattributed != 0.5 {
		t.Errorf("unattributed %v, want 0.5", p.unattributed)
	}
	if got := p.byName[spanApplyOr]; got.count != 1 || got.total != 20 || got.self != 17 {
		t.Errorf("apply.or aggregate %+v", got)
	}
}

func TestCheckerFlagsOneWrongBit(t *testing.T) {
	want := bitvec.New(130)
	want.Set(3)
	got := append([]uint64(nil), want.Words()...)
	var c checker
	label := func() string { return "v" }
	c.words(got, want, label)
	c.count(1, 1, label)
	if c.wrong != 0 {
		t.Fatalf("matching outputs flagged: %v", c.notes)
	}
	got[2] ^= 1 << 1 // bit 129
	c.words(got, want, label)
	c.count(2, 1, label)
	if c.wrong != 2 || len(c.notes) != 2 {
		t.Fatalf("wrong %d notes %v, want 2 mismatches", c.wrong, c.notes)
	}
}

// TestBenchmarkJSONMatchesHarness pins the repository's BENCHMARK.json to
// the harness: its workloads, end-to-end metrics and per-layer metrics are
// exactly the ones pinbench reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: %q (%q), harness %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	var e2e, layers []spec
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, spec{m.Name, m.Unit})
	}
	var wantLayers []spec
	for _, s := range layerSpecs {
		if s.json {
			wantLayers = append(wantLayers, s.spec)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []spec
	}{{"end_to_end", e2e, endToEndSpecs}, {"per_layer", layers, wantLayers}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, harness reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: %v, harness %v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}
