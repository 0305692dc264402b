package pimrt

import (
	"errors"
	"math/rand"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ecc"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// newECCSched builds a scheduler verifying through the in-array SECDED path.
// The injector (when fc enables faults) covers the spare columns too.
func newECCSched(t *testing.T, geo memarch.Geometry, fc fault.Config) (*Scheduler, *pim.Controller) {
	t.Helper()
	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	codec := ecc.Default()
	ctl.EnableECC(codec)
	if fc.Enabled() {
		inj, err := fault.New(fc, nvm.Get(nvm.PCM), analog.DefaultSenseConfig(),
			pim.ECCRowBits(geo, codec), ctl.Ledger())
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.AttachInjector(inj); err != nil {
			t.Fatal(err)
		}
	}
	s := &Scheduler{
		Ctl:    ctl,
		Verify: true,
	}
	return s, ctl
}

// The acceptance headline: on clean hardware, SECDED verification rides the
// program-verify sense and costs a few command slots, where read-back
// verification re-reads every row — the ~44x zero-fault tax this PR exists
// to remove.
func TestECCVerifyCheapOnCleanHardware(t *testing.T) {
	geo := memarch.Default()
	const bits = 1 << 14
	w := bitvec.WordsFor(bits)
	rng := rand.New(rand.NewSource(3))
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 1, Row: i}
	}
	dst := memarch.RowAddr{Subarray: 1, Row: 800}

	run := func(configure func(*Scheduler)) (float64, *[ledger.NumCounters]int64) {
		mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := pim.NewController(mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := &Scheduler{
			Ctl: ctl,
		}
		configure(s)
		r := rand.New(rand.NewSource(3))
		_ = rng
		for _, a := range rows {
			words := make([]uint64, w)
			for j := range words {
				words[j] = r.Uint64()
			}
			if err := ctl.Memory().WriteRow(a, words); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Execute(sense.OpOR, rows, bits, dst)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost.Seconds, &ctl.Ledger().Count
	}

	plain, _ := run(func(s *Scheduler) {})
	readback, rbStats := run(func(s *Scheduler) { s.Verify = true })
	eccTime, eccStats := run(func(s *Scheduler) {
		s.Ctl.EnableECC(ecc.Default())
		s.Verify = true
	})

	if rbStats[ledger.Verifies] == 0 || rbStats[ledger.EccDecodes] != 0 {
		t.Fatalf("read-back run stats off: %v", rbStats)
	}
	if eccStats[ledger.EccDecodes] == 0 || eccStats[ledger.Verifies] != 0 {
		t.Fatalf("ECC run stats off: %v", eccStats)
	}
	if eccStats[ledger.EccUncorrectables] != 0 || eccStats[ledger.EccCorrectedBits] != 0 {
		t.Fatalf("clean hardware produced ECC events: %v", eccStats)
	}
	if ratio := eccTime / plain; ratio > 1.1 {
		t.Errorf("zero-fault ECC verification overhead %.3fx exceeds 1.1x", ratio)
	}
	if ratio := readback / plain; ratio < 2 {
		t.Errorf("read-back verification overhead %.3fx suspiciously low — the comparison lost its point", ratio)
	}
}

// Bit-exactness under a fault rate SECDED can mostly absorb: the scheduler
// must return the oracle answer, correcting or escalating as needed.
func TestECCCorrectsSenseFlipsBitExact(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newECCSched(t, geo, fault.Config{Seed: 8, SenseFlipRate: 2e-3})
	const bits = 1 << 14
	w := bitvec.WordsFor(bits)
	rng := rand.New(rand.NewSource(6))
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 2, Row: i}
	}
	want := fillRows(t, ctl, rows, w, rng)
	for trial := 0; trial < 8; trial++ {
		dst := memarch.RowAddr{Subarray: 2, Row: 700 + trial}
		res, err := s.Execute(sense.OpOR, rows, bits, dst)
		if err != nil {
			t.Fatal(err)
		}
		got := ctl.Memory().ReadRow(res.FinalDst)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: word %d wrong under ECC verification", trial, j)
			}
		}
	}
	st := &ctl.Ledger().Count
	if st[ledger.EccDecodes] < 8 {
		t.Fatalf("syndrome decodes missing: %v", st)
	}
	if st[ledger.EccCorrectedBits]+st[ledger.EccUncorrectables] == 0 {
		t.Fatalf("flips at 2e-3 over deep ORs produced no ECC events: %v", st)
	}
}

// A flip rate of 1 floods every group past SECDED's guarantee: the decode
// must escalate (never miscorrect) and the read-back ladder must finish the
// job exactly.
func TestECCEscalatesToLadderOnHeavyFlips(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newECCSched(t, geo, fault.Config{Seed: 13, SenseFlipRate: 1})
	const bits = 4096
	w := bitvec.WordsFor(bits)
	rng := rand.New(rand.NewSource(9))
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
	}
	want := fillRows(t, ctl, rows, w, rng)
	dst := memarch.RowAddr{Subarray: 3, Row: 600}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("word %d wrong despite escalation", j)
		}
	}
	st := &ctl.Ledger().Count
	if st[ledger.EccUncorrectables] == 0 {
		t.Fatalf("saturating flips never escalated: %v", st)
	}
	if st[ledger.Verifies] == 0 {
		t.Fatalf("the read-back ladder never engaged after escalation: %v", st)
	}
	if st[ledger.DepthReductions]+st[ledger.InterFallbacks]+st[ledger.HostFallbacks] == 0 {
		t.Errorf("a saturated deep OR should take a degradation rung: %v", st)
	}
}

// ECC-mode exhaustion wraps both sentinels so callers can tell "ECC gave up
// and the ladder could not recover" from plain ladder exhaustion.
func TestECCExhaustionWrapsBothSentinels(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newECCSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	bits := geo.RowBits()
	w := bitvec.WordsFor(bits)
	srcs := []memarch.RowAddr{{Subarray: 2, Row: 0}, {Subarray: 2, Row: 1}}
	ones := make([]uint64, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for _, a := range srcs {
		if err := ctl.Memory().WriteRow(a, ones); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	preWear(t, ctl, dst, bits, 20)

	_, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if !errors.Is(err, ErrResilienceExhausted) {
		t.Fatalf("err=%v, want ErrResilienceExhausted", err)
	}
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err=%v, want ErrUncorrectable wrapped too", err)
	}
	if st := &ctl.Ledger().Count; st[ledger.EccUncorrectables] == 0 {
		t.Fatalf("exhaustion without an escalated syndrome: %v", st)
	}
}
