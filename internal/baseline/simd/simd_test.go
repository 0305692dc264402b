package simd

import (
	"testing"

	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := HaswellConfig(nvm.PCM)
	cfg.MemReadBW = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestEngineMetadata(t *testing.T) {
	e, err := New(HaswellConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "SIMD" || e.Parallelism() != 1 {
		t.Error("metadata wrong")
	}
}

func TestOpCostScalesWithTraffic(t *testing.T) {
	e, err := New(HaswellConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	small, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 2, Bits: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 2, Bits: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	if large.Seconds <= small.Seconds || large.Joules <= small.Joules {
		t.Error("longer vectors must cost more")
	}
	wide, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 128, Bits: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	// 128 operands carry 64x the read traffic of 2 operands, but the fixed
	// result-write time (slow PCM writes) damps the ratio.
	if ratio := wide.Seconds / large.Seconds; ratio < 10 || ratio > 64 {
		t.Errorf("128-operand / 2-operand time ratio %g, want within (10,64)", ratio)
	}
}

func TestCacheResidencySpeedsUp(t *testing.T) {
	e, err := New(HaswellConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.OpSpec{Op: sense.OpAND, Operands: 2, Bits: 1 << 14}
	mem, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CacheResident = true
	hot, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Seconds >= mem.Seconds || hot.Joules >= mem.Joules {
		t.Error("cache-resident op should be cheaper")
	}
}

func TestCacheResidencyIgnoredWhenTooBig(t *testing.T) {
	e, err := New(HaswellConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	// 128 × 2^19 bits = 8 MB > 6 MB LLC: residency flag cannot apply.
	spec := workload.OpSpec{Op: sense.OpOR, Operands: 128, Bits: 1 << 19}
	cold, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CacheResident = true
	hot, err := e.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hot != cold {
		t.Error("oversized working set should ignore the residency flag")
	}
}

func TestPCMWritesSlowerThanDRAM(t *testing.T) {
	pcm, err := New(HaswellConfig(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	dram, err := New(HaswellConfig(nvm.DRAM))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.OpSpec{Op: sense.OpOR, Operands: 2, Bits: 1 << 19}
	cp, err := pcm.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := dram.OpCost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seconds <= cd.Seconds {
		t.Error("SIMD on PCM should be slower than on DRAM (write bandwidth)")
	}
}

func TestOpCostRejectsInvalid(t *testing.T) {
	e, _ := New(HaswellConfig(nvm.PCM))
	if _, err := e.OpCost(workload.OpSpec{Op: sense.OpOR, Operands: 1, Bits: 64}); err == nil {
		t.Error("invalid spec accepted")
	}
}
