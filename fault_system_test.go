package pinatubo

import (
	"math"
	"math/rand"
	"testing"

	"pinatubo/internal/bitvec"
)

// faultySys builds a system with the given fault configuration.
func faultySys(t testing.TB, fc FaultConfig) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Fault = fc
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewRejectsInvalidFaultRates pins that New refuses a fault rate that
// is negative, above 1 or NaN. NaN compares false with every bound, so a
// range test written as "r < 0 || r > 1" let it through, and a System
// built with it ran fault-free.
func TestNewRejectsInvalidFaultRates(t *testing.T) {
	for _, r := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		for _, fc := range []FaultConfig{{SenseFlipRate: r}, {ActivationFailRate: r}} {
			cfg := DefaultConfig()
			cfg.Fault = fc
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted fault config %+v", fc)
			}
		}
	}
}

// The issue's acceptance criterion: at a sense-flip rate that corrupts the
// majority of 128-row ORs (λ ≈ 3 flipped bits per deep OR at this rate and
// vector length), every Or/And/Xor/Not result must still match the bitwise
// golden model — the verify-retry-degrade ladder never returns wrong data —
// and FaultStats must show the ladder actually worked for it.
func TestFaultyOpsNeverReturnWrongBits(t *testing.T) {
	s := faultySys(t, FaultConfig{Seed: 1, SenseFlipRate: 1e-4})
	const bits = 1 << 16
	w := bitvec.WordsFor(bits)
	rng := rand.New(rand.NewSource(2))

	vs, err := s.AllocGroup(128, bits)
	if err != nil {
		t.Fatal(err)
	}
	golden := make([][]uint64, len(vs))
	for i, v := range vs {
		golden[i] = make([]uint64, w)
		for j := range golden[i] {
			golden[i][j] = rng.Uint64()
		}
		if _, err := s.Write(v, golden[i]); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := s.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, want func(j int) uint64) {
		t.Helper()
		got, _, err := s.Read(dst)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		for j := 0; j < w; j++ {
			if got[j] != want(j) {
				t.Fatalf("%s: word %d wrong despite resilience", name, j)
			}
		}
	}

	// Deep OR over all 128 rows — the op the fault model hits hardest.
	res, err := s.Or(dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	check("or128", func(j int) uint64 {
		var or uint64
		for i := range golden {
			or |= golden[i][j]
		}
		return or
	})
	if res.Requests == 0 {
		t.Fatal("no requests recorded")
	}

	// Several more deep ORs so the retry statistics are unambiguous.
	for k := 0; k < 9; k++ {
		if _, err := s.Or(dst, vs...); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.And(dst, vs[0], vs[1]); err != nil {
		t.Fatal(err)
	}
	check("and", func(j int) uint64 { return golden[0][j] & golden[1][j] })

	if _, err := s.Xor(dst, vs[2], vs[3]); err != nil {
		t.Fatal(err)
	}
	check("xor", func(j int) uint64 { return golden[2][j] ^ golden[3][j] })

	if _, err := s.Not(dst, vs[4]); err != nil {
		t.Fatal(err)
	}
	tailMask := uint64(1)<<(bits%64) - 1
	if bits%64 == 0 {
		tailMask = ^uint64(0)
	}
	check("not", func(j int) uint64 {
		out := ^golden[4][j]
		if j == w-1 {
			out &= tailMask
		}
		return out
	})

	st := s.FaultStats()
	if st.SenseFlips == 0 {
		t.Fatalf("the injector never fired: %+v", st)
	}
	if st.Verifies == 0 || st.Retries == 0 {
		t.Fatalf("resilience layer shows no activity: %+v", st)
	}
}

// TestChainedSplitSparseOperands checks the never-wrong-answer contract
// where dense operands cannot: each of 128 sources holds one bit, so a
// dropped or spurious bit in the OR shows. A 128-row OR's own depth split
// chains its second link, and when that link fails, its depth split must
// not trust the accumulator row a failed attempt overwrote.
func TestChainedSplitSparseOperands(t *testing.T) {
	const bits = 1 << 16
	w := bitvec.WordsFor(bits)
	for _, rate := range []float64{1e-3, 1e-2} {
		for seed := int64(1); seed <= 30; seed++ {
			s := faultySys(t, FaultConfig{Seed: seed, SenseFlipRate: rate})
			vs, err := s.AllocGroup(129, bits)
			if err != nil {
				t.Fatal(err)
			}
			srcs, dst := vs[:128], vs[128]
			want := make([]uint64, w)
			for i, v := range srcs {
				words := make([]uint64, w)
				bit := 509 * i
				words[bit/64] = 1 << (bit % 64)
				want[bit/64] |= words[bit/64]
				if _, err := s.Write(v, words); err != nil {
					t.Fatalf("rate %g seed %d: write %d: %v", rate, seed, i, err)
				}
			}
			if _, err := s.Or(dst, srcs...); err != nil {
				continue // an error is a permitted outcome; wrong bits are not
			}
			got, _, err := s.Read(dst)
			if err != nil {
				t.Fatalf("rate %g seed %d: read: %v", rate, seed, err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("rate %g seed %d: word %d = %#x, want %#x", rate, seed, j, got[j], want[j])
				}
			}
		}
	}
}

func TestFaultStatsReportDegradations(t *testing.T) {
	// Flip rate 1 forces every deep OR down the depth-split rung and every
	// AND onto the digital inter path.
	s := faultySys(t, FaultConfig{Seed: 3, SenseFlipRate: 1})
	const bits = 4096
	vs, err := s.AllocGroup(128, bits)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if _, err := s.Write(v, []uint64{^uint64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := s.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Or(dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == "" || res.Retries == 0 {
		t.Fatalf("deep OR at flip rate 1 reported no degradation: %+v", res)
	}
	if _, err := s.And(dst, vs[0], vs[1]); err != nil {
		t.Fatal(err)
	}
	st := s.FaultStats()
	if st.DepthReductions == 0 || st.InterFallbacks == 0 {
		t.Fatalf("expected depth-split and inter fallbacks: %+v", st)
	}
	if st.BitsCorrected == 0 {
		t.Fatalf("no corrected bits: %+v", st)
	}
}

func TestWearRetiresRowsThroughPublicAPI(t *testing.T) {
	s := faultySys(t, FaultConfig{Seed: 7, WearLimit: 2})
	// Full-row vector: stuck-at positions are drawn across the whole row,
	// so the vector must cover it for the damage to be observable.
	bits := s.RowBits()
	v, err := s.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	// Rewriting the same vector wears its row out; the write path must
	// verify, retire and remap so the vector always holds true data.
	for i := 0; i < 30; i++ {
		if _, err := s.Write(v, ones); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != ones[j] {
				t.Fatalf("write %d: word %d corrupted by wear", i, j)
			}
		}
	}
	st := s.FaultStats()
	if st.RowWrites == 0 {
		t.Fatalf("wear model saw no writes: %+v", st)
	}
	if st.RowsRetired == 0 {
		t.Fatalf("30 rewrites at WearLimit=2 retired nothing: %+v", st)
	}
}

// With Config.Fault zeroed the system must follow the exact seed code path:
// identical latency/energy, no resilience fields set, empty fault stats.
func TestZeroFaultConfigIsBitIdentical(t *testing.T) {
	run := func(cfg Config) (Result, Result, Stats) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const bits = 1 << 14
		vs, err := s.AllocGroup(64, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for _, v := range vs {
			words := make([]uint64, bitvec.WordsFor(bits))
			for j := range words {
				words[j] = rng.Uint64()
			}
			if _, err := s.Write(v, words); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := s.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		orRes, err := s.Or(dst, vs...)
		if err != nil {
			t.Fatal(err)
		}
		andRes, err := s.And(dst, vs[0], vs[1])
		if err != nil {
			t.Fatal(err)
		}
		if fs := s.FaultStats(); fs != (FaultStats{}) {
			t.Fatalf("fault stats nonzero without faults: %+v", fs)
		}
		return orRes, andRes, s.Stats()
	}

	// Setting only the seed (or drift) does not enable injection; both must
	// match the plain default config number for number.
	base := DefaultConfig()
	seeded := DefaultConfig()
	seeded.Fault.Seed = 12345

	or1, and1, st1 := run(base)
	or2, and2, st2 := run(seeded)
	if or1 != or2 || and1 != and2 {
		t.Fatalf("zeroed fault config changed op results:\n%+v\n%+v", or1, or2)
	}
	if st1.BusySeconds != st2.BusySeconds || st1.EnergyJoules != st2.EnergyJoules {
		t.Fatalf("zeroed fault config changed totals: %+v vs %+v", st1, st2)
	}
	if or1.Retries != 0 || or1.Degraded != "" || or1.BitsCorrected != 0 {
		t.Fatalf("resilience fields set without faults: %+v", or1)
	}

	// Replicate without an active resilience layer (VerifyAuto at fault
	// rate 0 resolves to VerifyOff) must be fully inert: same results,
	// same totals, no replica rows allocated, no votes.
	replicated := DefaultConfig()
	replicated.Resilience.Replicate = 3
	or3, and3, st3 := run(replicated)
	if or1 != or3 || and1 != and3 {
		t.Fatalf("inert Replicate=3 changed op results:\n%+v\n%+v", or1, or3)
	}
	if st1.BusySeconds != st3.BusySeconds || st1.EnergyJoules != st3.EnergyJoules {
		t.Fatalf("inert Replicate=3 changed totals: %+v vs %+v", st1, st3)
	}
}

// A rejected Read must not open a fault substream. Read validates its
// vector before beginOp, as Apply and Write do, so a system that made a
// bad Read call draws exactly the faults of a twin that never made it:
// same sense flips, same ladder activity, same results.
func TestRejectedReadKeepsFaultStream(t *testing.T) {
	const bits = 4096
	run := func(badReads bool) (FaultStats, []uint64) {
		s := faultySys(t, FaultConfig{Seed: 1, SenseFlipRate: 1e-2})
		rng := rand.New(rand.NewSource(3))
		vs, err := s.AllocGroup(64, bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			words := make([]uint64, bitvec.WordsFor(bits))
			for j := range words {
				words[j] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			if _, err := s.Write(v, words); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := s.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		freed, err := s.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(freed); err != nil {
			t.Fatal(err)
		}
		foreign, err := newSys(t).Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		if badReads {
			if _, _, err := s.Read(freed); err == nil {
				t.Fatal("Read of a freed vector succeeded")
			}
			if _, _, err := s.Read(foreign); err == nil {
				t.Fatal("Read of a foreign vector succeeded")
			}
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Or(dst, vs...); err != nil {
				t.Fatalf("or %d: %v", i, err)
			}
		}
		got, _, err := s.Read(dst)
		if err != nil {
			t.Fatal(err)
		}
		return s.FaultStats(), got
	}
	clean, want := run(false)
	twin, got := run(true)
	if clean.SenseFlips == 0 {
		t.Fatal("no sense flips injected; the comparison is vacuous")
	}
	if twin != clean {
		t.Errorf("rejected Reads changed the fault stream:\n got %+v\nwant %+v", twin, clean)
	}
	if !bitvec.EqualWords(got, want, bits) {
		t.Error("rejected Reads changed the OR result")
	}
}

// FaultStats' injector fields are ground truth and read zero without an
// injector; its response fields count whenever verification runs. A
// fault-free system under explicit verification counts one pass per
// host-written row and one per op, and no row writes: the wear model
// counts them only with an injector attached.
func TestFaultStatsCountVerificationWithoutInjector(t *testing.T) {
	for _, tc := range []struct {
		mode VerifyMode
		want FaultStats
	}{
		{VerifyReadback, FaultStats{Verifies: 4}},
		{VerifyECC, FaultStats{EccDecodes: 4}},
	} {
		cfg := DefaultConfig()
		cfg.Resilience.Verify = tc.mode
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.AllocGroup(4, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs[:3] {
			if _, err := s.Write(v, []uint64{1 << i}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Or(vs[3], vs[:3]...); err != nil {
			t.Fatal(err)
		}
		if got := s.FaultStats(); got != tc.want {
			t.Errorf("%v: FaultStats = %+v, want %+v", tc.mode, got, tc.want)
		}
	}
}
