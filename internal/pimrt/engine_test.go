package pimrt

import (
	"testing"

	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

func newEngine(t testing.TB, maxRows int) *Engine {
	t.Helper()
	e, err := NewEngine(nvm.PCM, maxRows)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineMetadata(t *testing.T) {
	e2 := newEngine(t, 2)
	e128 := newEngine(t, 128)
	if e2.Name() != "Pinatubo-2" || e128.Name() != "Pinatubo-128" {
		t.Errorf("names %q %q", e2.Name(), e128.Name())
	}
	if e2.Parallelism() != 4 {
		t.Errorf("parallelism %g", e2.Parallelism())
	}
	if e2.MaxRows() != 2 || e128.MaxRows() != 128 {
		t.Error("MaxRows wrong")
	}
}

func TestEngineClampsToTechLimit(t *testing.T) {
	// Asking for 128-row OR on STT-MRAM must clamp to its 2-row limit.
	e, err := NewEngine(nvm.STTMRAM, 128)
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxRows() != 2 {
		t.Errorf("STT-MRAM engine depth %d want 2", e.MaxRows())
	}
}

func TestEngineRejectsBadDepth(t *testing.T) {
	if _, err := NewEngine(nvm.PCM, 1); err == nil {
		t.Error("maxRows=1 accepted")
	}
}

func TestMultiRowBeatsChained(t *testing.T) {
	// The paper's headline: one-step 128-row OR vastly outperforms a
	// 2-row chain over the same 128 operands.
	e2 := newEngine(t, 2)
	e128 := newEngine(t, 128)
	spec := workload.OpSpec{Op: sense.OpOR, Operands: 128, Bits: 1 << 19, Placement: workload.PlaceIntra}
	c2, err := e2.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	c128, err := e128.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := c2.Seconds / c128.Seconds; speedup < 20 {
		t.Errorf("128-row speedup over chained 2-row is %.1fx, want > 20x", speedup)
	}
	if saving := c2.Joules / c128.Joules; saving < 10 {
		t.Errorf("128-row energy saving over chained is %.1fx, want > 10x", saving)
	}
}

func TestRandomPlacementKillsMultiRow(t *testing.T) {
	// Paper, Fig. 10 (14-16-7r): when operands land in different
	// banks/subarrays, Pinatubo-128 degenerates to Pinatubo-2 speed.
	e2 := newEngine(t, 2)
	e128 := newEngine(t, 128)
	spec := workload.OpSpec{Op: sense.OpOR, Operands: 128, Bits: 1 << 14, Placement: workload.PlaceInterBank}
	c2, err := e2.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	c128, err := e128.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := c2.Seconds / c128.Seconds; ratio > 1.5 {
		t.Errorf("inter-bank 128-row 'advantage' %.2fx, should be ~1x", ratio)
	}
}

func TestAllOpsPriced(t *testing.T) {
	e := newEngine(t, 128)
	for _, p := range []workload.Placement{workload.PlaceIntra, workload.PlaceInterSub, workload.PlaceInterBank} {
		specs := []workload.OpSpec{
			{Op: sense.OpAND, Operands: 2, Bits: 4096, Placement: p},
			{Op: sense.OpOR, Operands: 7, Bits: 4096, Placement: p},
			{Op: sense.OpXOR, Operands: 2, Bits: 4096, Placement: p},
			{Op: sense.OpINV, Operands: 1, Bits: 4096, Placement: p},
		}
		for _, s := range specs {
			c, err := e.OpCost(s)
			if err != nil {
				t.Errorf("%v/%v: %v", s.Op, p, err)
				continue
			}
			if c.Seconds <= 0 || c.Joules <= 0 {
				t.Errorf("%v/%v: non-positive cost", s.Op, p)
			}
		}
	}
}

func TestChainedANDXOR(t *testing.T) {
	e := newEngine(t, 128)
	c2, err := e.OpCost(workload.OpSpec{Op: sense.OpAND, Operands: 2, Bits: 4096, Placement: workload.PlaceIntra})
	if err != nil {
		t.Fatal(err)
	}
	c5, err := e.OpCost(workload.OpSpec{Op: sense.OpAND, Operands: 5, Bits: 4096, Placement: workload.PlaceIntra})
	if err != nil {
		t.Fatal(err)
	}
	// 5 operands = 4 chained 2-row ANDs (multi-row AND is not sensible).
	if ratio := c5.Seconds / c2.Seconds; ratio < 3.9 || ratio > 4.1 {
		t.Errorf("5-operand AND is %.2fx a 2-operand AND, want 4x", ratio)
	}
}

func TestLongVectorBatchesOverRankRows(t *testing.T) {
	// Fig. 9 turning point B: vectors beyond 2^19 bits serialise over
	// rank rows.
	e := newEngine(t, 128)
	one, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 2, Bits: 1 << 19, Placement: workload.PlaceIntra})
	if err != nil {
		t.Fatal(err)
	}
	two, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 2, Bits: 1 << 20, Placement: workload.PlaceIntra})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := two.Seconds / one.Seconds; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("2^20/2^19 ratio %.2f want 2", ratio)
	}
}

func TestDeepChunkedInterOR(t *testing.T) {
	// More operands than the inter request cap must still price (chunked).
	e := newEngine(t, 128)
	spec := workload.OpSpec{Op: sense.OpOR, Operands: pim.InterORLimit + 10, Bits: 4096, Placement: workload.PlaceInterSub}
	c, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seconds <= 0 {
		t.Error("chunked inter OR priced at zero")
	}
}

func TestEngineInvalidSpec(t *testing.T) {
	e := newEngine(t, 128)
	if _, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 1, Bits: 64}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := e.OpCost(workload.OpSpec{Op: sense.Op(9), Operands: 2, Bits: 64}); err == nil {
		t.Error("unknown op accepted")
	}
}

func BenchmarkEngineOR128Intra(b *testing.B) {
	e := newEngine(b, 128)
	spec := workload.OpSpec{Op: sense.OpOR, Operands: 128, Bits: 1 << 19, Placement: workload.PlaceIntra}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.OpCost(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGroupedORPricing(t *testing.T) {
	e := newEngine(t, 128)
	// 96 operands: 3 subarray groups of 32 vs the same operands fully
	// scattered (one per "group") vs pure inter placement.
	grouped := workload.OpSpec{
		Op: sense.OpOR, Operands: 96, Bits: 1 << 14,
		Placement: workload.PlaceInterSub, Groups: []int{32, 32, 32},
	}
	scattered := workload.OpSpec{
		Op: sense.OpOR, Operands: 96, Bits: 1 << 14,
		Placement: workload.PlaceInterSub,
	}
	cg, err := e.OpCost(grouped)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := e.OpCost(scattered)
	if err != nil {
		t.Fatal(err)
	}
	// Grouping collapses 96 serial reads into 3 one-step ORs + a 3-way
	// combine: far cheaper.
	if cg.Seconds >= cs.Seconds {
		t.Errorf("grouped OR (%.3g s) not cheaper than scattered (%.3g s)",
			cg.Seconds, cs.Seconds)
	}
	if cg.Seconds > cs.Seconds/3 {
		t.Errorf("grouping saved too little: %.3g vs %.3g", cg.Seconds, cs.Seconds)
	}
}

func TestGroupedORSingletonGroupsFree(t *testing.T) {
	e := newEngine(t, 128)
	// All-singleton groups degenerate to the plain inter path.
	singletons := workload.OpSpec{
		Op: sense.OpOR, Operands: 4, Bits: 4096,
		Placement: workload.PlaceInterBank, Groups: []int{1, 1, 1, 1},
	}
	plain := workload.OpSpec{
		Op: sense.OpOR, Operands: 4, Bits: 4096,
		Placement: workload.PlaceInterBank,
	}
	cgs, err := e.OpCost(singletons)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.OpCost(plain)
	if err != nil {
		t.Fatal(err)
	}
	if cgs != cp {
		t.Errorf("singleton groups %.4g s, plain inter %.4g s — should match", cgs.Seconds, cp.Seconds)
	}
}

func TestEngineCostCacheConsistent(t *testing.T) {
	e := newEngine(t, 128)
	spec := workload.OpSpec{
		Op: sense.OpOR, Operands: 16, Bits: 1 << 14,
		Placement: workload.PlaceInterSub, Groups: []int{8, 8},
	}
	first, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.OpCost(spec) // cached
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache returned a different cost")
	}
	// A different grouping must NOT hit the same cache entry.
	other := spec
	other.Groups = []int{15, 1}
	third, err := e.OpCost(other)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Error("different groupings collided in the cache")
	}
}
