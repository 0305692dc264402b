package pinatubo

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pinatubo/internal/bitvec"
	"pinatubo/internal/pimrt"
)

// TestGoldenCompatZeroFault pins the default zero-fault system to the exact
// numbers the pre-ECC build produced (captured from the seed of this PR):
// the API redesign and the ECC plumbing must not move a single bit, cycle
// or joule of the unverified path.
func TestGoldenCompatZeroFault(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1 << 14
	vs, err := sys.AllocGroup(64, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, v := range vs {
		words := make([]uint64, bitvec.WordsFor(bits))
		for j := range words {
			words[j] = rng.Uint64()
		}
		if _, err := sys.Write(v, words); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := sys.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}
	or, err := sys.Or(dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	and, err := sys.And(dst, vs[0], vs[1])
	if err != nil {
		t.Fatal(err)
	}
	xor, err := sys.Xor(dst, vs[2], vs[3])
	if err != nil {
		t.Fatal(err)
	}
	not, err := sys.Not(dst, vs[4])
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.Copy(dst, vs[5])
	if err != nil {
		t.Fatal(err)
	}
	words, rd, err := sys.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	var h uint64 = 1469598103934665603
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}

	check := func(name string, got Result, class string, req int, latNs int64, joules float64) {
		t.Helper()
		if got.Class.String() != class || got.Requests != req ||
			got.Latency.Nanoseconds() != latNs || got.EnergyJoules != joules {
			t.Errorf("%s: got class=%q req=%d lat=%dns energy=%.17g, want class=%q req=%d lat=%dns energy=%.17g",
				name, got.Class, got.Requests, got.Latency.Nanoseconds(), got.EnergyJoules,
				class, req, latNs, joules)
		}
	}
	check("or", or, "intra-subarray", 1, 260, 1.9591680000000001e-07)
	check("and", and, "intra-subarray", 1, 183, 1.4500240000000001e-07)
	check("xor", xor, "intra-subarray", 1, 192, 1.507368e-07)
	check("not", not, "intra-subarray", 1, 182, 1.441812e-07)
	check("copy", cp, "intra-subarray", 1, 182, 1.441812e-07)
	check("read", rd, "host-read", 1, 190, 1.441812e-07)
	if h != 0x84ba015be86e6e62 {
		t.Errorf("result hash %#x, want 0x84ba015be86e6e62 — data path changed", h)
	}
	st := sys.Stats()
	if st.Requests != 70 || st.BusySeconds != 2.2352949999999994e-05 ||
		st.EnergyJoules != 1.7701415600000014e-05 {
		t.Errorf("stats moved: requests=%d busy=%.17g joules=%.17g", st.Requests, st.BusySeconds, st.EnergyJoules)
	}
	hw := sys.HardwareCounters()
	if hw.Activations != 135 || hw.SenseSteps != 7 || hw.Writebacks != 69 || hw.BusBits != 1064960 {
		t.Errorf("hardware counters moved: %+v", hw)
	}
	if fs := sys.FaultStats(); fs != (FaultStats{}) {
		t.Errorf("zero-fault system accumulated fault stats: %+v", fs)
	}
}

func TestVerifyModeResolution(t *testing.T) {
	cases := []struct {
		name    string
		rc      ResilienceConfig
		fault   FaultConfig
		want    VerifyMode
		wantErr string
	}{
		{name: "default no faults", want: VerifyOff},
		{name: "default with faults", fault: FaultConfig{Seed: 1, SenseFlipRate: 1e-4}, want: VerifyReadback},
		{name: "explicit off beats faults", rc: ResilienceConfig{Verify: VerifyOff},
			fault: FaultConfig{Seed: 1, SenseFlipRate: 1e-4}, want: VerifyOff},
		{name: "explicit readback", rc: ResilienceConfig{Verify: VerifyReadback}, want: VerifyReadback},
		{name: "explicit ecc", rc: ResilienceConfig{Verify: VerifyECC}, want: VerifyECC},
		{name: "out of range mode", rc: ResilienceConfig{Verify: VerifyMode(99)},
			wantErr: "unknown VerifyMode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Fault = tc.fault
			cfg.Resilience = tc.rc
			sys, err := New(cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err=%v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.VerifyMode(); got != tc.want {
				t.Fatalf("effective mode %v, want %v", got, tc.want)
			}
		})
	}
}

func TestApplyArityAndEquivalence(t *testing.T) {
	sys := newSys(t)
	const bits = 4096
	vs, err := sys.AllocGroup(4, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([][]uint64, len(vs))
	for i, v := range vs {
		data[i] = make([]uint64, bitvec.WordsFor(bits))
		for j := range data[i] {
			data[i][j] = rng.Uint64()
		}
		if _, err := sys.Write(v, data[i]); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := sys.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}

	for _, bad := range []struct {
		op   Op
		srcs []*BitVector
	}{
		{OpOr, nil},
		{OpAnd, vs[:1]},
		{OpAnd, vs[:3]},
		{OpXor, vs[:1]},
		{OpNot, vs[:2]},
		{OpCopy, vs[:0]},
		{Op(99), vs[:1]},
	} {
		if _, err := sys.Apply(bad.op, dst, bad.srcs); err == nil {
			t.Errorf("Apply(%v, %d srcs) accepted a bad arity", bad.op, len(bad.srcs))
		}
	}

	// Each wrapper must be exactly Apply with the corresponding Op: same
	// class, cost and bits.
	type runner func() (Result, error)
	pairs := []struct {
		name    string
		method  runner
		generic runner
		want    func() []uint64
	}{
		{"or", func() (Result, error) { return sys.Or(dst, vs...) },
			func() (Result, error) { return sys.Apply(OpOr, dst, vs) },
			func() []uint64 {
				out := make([]uint64, len(data[0]))
				for _, d := range data {
					for j := range out {
						out[j] |= d[j]
					}
				}
				return out
			}},
		{"and", func() (Result, error) { return sys.And(dst, vs[0], vs[1]) },
			func() (Result, error) { return sys.Apply(OpAnd, dst, []*BitVector{vs[0], vs[1]}) },
			func() []uint64 {
				out := make([]uint64, len(data[0]))
				for j := range out {
					out[j] = data[0][j] & data[1][j]
				}
				return out
			}},
		{"xor", func() (Result, error) { return sys.Xor(dst, vs[2], vs[3]) },
			func() (Result, error) { return sys.Apply(OpXor, dst, []*BitVector{vs[2], vs[3]}) },
			func() []uint64 {
				out := make([]uint64, len(data[0]))
				for j := range out {
					out[j] = data[2][j] ^ data[3][j]
				}
				return out
			}},
		{"not", func() (Result, error) { return sys.Not(dst, vs[0]) },
			func() (Result, error) { return sys.Apply(OpNot, dst, []*BitVector{vs[0]}) },
			func() []uint64 {
				out := make([]uint64, len(data[0]))
				for j := range out {
					out[j] = ^data[0][j]
				}
				return out
			}},
		{"copy", func() (Result, error) { return sys.Copy(dst, vs[1]) },
			func() (Result, error) { return sys.Apply(OpCopy, dst, []*BitVector{vs[1]}) },
			func() []uint64 { return append([]uint64(nil), data[1]...) }},
	}
	for _, p := range pairs {
		rm, err := p.method()
		if err != nil {
			t.Fatalf("%s method: %v", p.name, err)
		}
		rg, err := p.generic()
		if err != nil {
			t.Fatalf("%s Apply: %v", p.name, err)
		}
		if rm.Class != rg.Class || rm.Latency != rg.Latency || rm.EnergyJoules != rg.EnergyJoules {
			t.Errorf("%s: wrapper %+v != Apply %+v", p.name, rm, rg)
		}
		got, _, err := sys.Read(dst)
		if err != nil {
			t.Fatal(err)
		}
		want := bitvec.FromWords(bits, p.want())
		if !bitvec.FromWords(bits, got).Equal(want) {
			t.Errorf("%s: result bits wrong", p.name)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpOr: "or", OpAnd: "and", OpXor: "xor", OpNot: "not", OpCopy: "copy",
	} {
		if op.String() != want {
			t.Errorf("Op %d string %q, want %q", int(op), op.String(), want)
		}
	}
}

// The exported sentinels must be the exact values the runtime wraps, so
// errors.Is works across the package boundary.
func TestSentinelIdentity(t *testing.T) {
	if !errors.Is(ErrResilienceExhausted, pimrt.ErrResilienceExhausted) {
		t.Error("ErrResilienceExhausted is not the runtime sentinel")
	}
	if !errors.Is(ErrUncorrectable, pimrt.ErrUncorrectable) {
		t.Error("ErrUncorrectable is not the runtime sentinel")
	}
}

// eccFaultySys builds a VerifyECC system over faulty hardware.
func eccFaultySys(t testing.TB, fc FaultConfig) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Fault = fc
	cfg.Resilience.Verify = VerifyECC
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestECCBitExactUnderFaults is the property the verification path must
// hold at any swept rate: every result is bit-identical to the host
// computation, whether SECDED corrected it in place or escalated.
func TestECCBitExactUnderFaults(t *testing.T) {
	for _, rate := range []float64{1e-4, 1e-3} {
		sys := eccFaultySys(t, FaultConfig{Seed: 7, SenseFlipRate: rate})
		const bits = 1 << 14
		w := bitvec.WordsFor(bits)
		vs, err := sys.AllocGroup(64, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		golden := make([]uint64, w)
		words := make([]uint64, w)
		for _, v := range vs {
			for j := range words {
				words[j] = rng.Uint64()
				golden[j] |= words[j]
			}
			if _, err := sys.Write(v, words); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := sys.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			if _, err := sys.Or(dst, vs...); err != nil {
				t.Fatal(err)
			}
			got, _, err := sys.Read(dst)
			if err != nil {
				t.Fatal(err)
			}
			for j := range golden {
				if got[j] != golden[j] {
					t.Fatalf("rate %g trial %d: word %d wrong under VerifyECC", rate, trial, j)
				}
			}
		}
		st := sys.FaultStats()
		if st.EccDecodes == 0 {
			t.Fatalf("rate %g: VerifyECC ran without syndrome decodes: %+v", rate, st)
		}
		if st.Verifies > st.EccDecodes {
			t.Fatalf("rate %g: read-back dominates an ECC system: %+v", rate, st)
		}
	}
}

// TestECCWearRetiresRows drives host writes into wear-induced stuck bits:
// the ECC write path must keep data exact by correcting or retiring rows.
func TestECCWearRetiresRows(t *testing.T) {
	sys := eccFaultySys(t, FaultConfig{Seed: 3, WearLimit: 6})
	const bits = 2048
	w := bitvec.WordsFor(bits)
	v, err := sys.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	words := make([]uint64, w)
	for round := 0; round < 64; round++ {
		for j := range words {
			words[j] = rng.Uint64()
		}
		if _, err := sys.Write(v, words); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, _, err := sys.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		for j := range words {
			if got[j] != words[j] {
				t.Fatalf("round %d: word %d wrong after wear", round, j)
			}
		}
	}
	st := sys.FaultStats()
	if st.StuckRows == 0 {
		t.Skip("wear never minted a stuck bit in this configuration")
	}
	if st.EccDecodes == 0 {
		t.Fatalf("worn ECC system never decoded a syndrome: %+v", st)
	}
}
