package pim

import (
	"math/rand"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ecc"
	"pinatubo/internal/energy"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

func newECCCtl(t testing.TB) *Controller {
	t.Helper()
	c := newCtl(t, nvm.PCM)
	c.EnableECC(ecc.Default())
	return c
}

func TestECCHostWriteEncodesCheckBits(t *testing.T) {
	plain := newCtl(t, nvm.PCM)
	eccd := newECCCtl(t)
	addr := memarch.RowAddr{Row: 3}
	words := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef}
	bits := 128

	rp, err := plain.WriteRowFromHost(addr, words, bits)
	if err != nil {
		t.Fatal(err)
	}
	re, err := eccd.WriteRowFromHost(addr, words, bits)
	if err != nil {
		t.Fatal(err)
	}
	// Spare columns program inside the same tWR window: identical latency,
	// extra encode + spare-programming energy.
	if re.Seconds != rp.Seconds {
		t.Errorf("ECC host write latency %g != plain %g", re.Seconds, rp.Seconds)
	}
	if re.Energy.Component(energy.ECCLogic) <= 0 {
		t.Error("ECC host write charged no encoder energy")
	}
	cb := eccd.ECCCodec().CheckRowBits(bits)
	extra := re.Energy.Component(energy.WriteDriver) - rp.Energy.Component(energy.WriteDriver)
	want := float64(cb) * nvm.Get(nvm.PCM).Energy.WritePerBit
	if extra <= 0 || extra > 1.01*want {
		t.Errorf("spare write energy %g, want ~%g", extra, want)
	}
	checkBits, check, ok := eccd.mem.Check(addr)
	if !ok || checkBits != bits {
		t.Fatal("no check words stored for the written row")
	}
	if got := eccd.ECCCodec().DecodeRow(append([]uint64(nil), words...), check, bits); got != (ecc.RowResult{}) {
		t.Fatalf("stored check bits inconsistent with data: %+v", got)
	}
}

func TestECCProgramAndVerifyCleanOp(t *testing.T) {
	c := newECCCtl(t)
	rng := rand.New(rand.NewSource(7))
	srcs := addrsInSubarray(4)
	dst := memarch.RowAddr{Channel: 0, Bank: 1, Subarray: 2, Row: 100}
	const bits = 1 << 12
	w := bitvec.WordsFor(bits)
	for _, a := range srcs {
		fillRow(t, c, a, w, rng)
	}
	golden, err := c.Golden(nil, sense.OpOR, srcs, bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(sense.OpOR, srcs, bits, &dst); err != nil {
		t.Fatal(err)
	}
	cost, err := c.ECCProgram(dst, golden, bits, sense.OpOR, len(srcs))
	if err != nil {
		t.Fatal(err)
	}
	// OR is not GF(2)-linear: the encoder path must be charged.
	if cost.Energy.Component(energy.ECCLogic) <= 0 {
		t.Error("nonlinear regen charged no encoder energy")
	}
	t0 := nvm.Get(nvm.PCM).Timing
	groups := backend.SenseGroups(c.mem.Geometry(), bits)
	if want := float64(groups) * t0.TCMD; cost.Seconds != want {
		t.Errorf("nonlinear regen latency %g, want %g", cost.Seconds, want)
	}

	v, err := c.CorrectOrEscalate(dst, bits, golden)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.CorrectedBits != 0 || v.Uncorrectable || v.Rewritten {
		t.Fatalf("clean verify came back %+v", v)
	}
	if want := float64(groups) * t0.TCMD; v.Seconds != want {
		t.Errorf("clean verify latency %g, want %g (syndrome pipeline only)", v.Seconds, want)
	}

	// The linear fast path (XOR) must not touch the encoder trees.
	xg, err := c.Golden(nil, sense.OpXOR, srcs[:2], bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(sense.OpXOR, srcs[:2], bits, &dst); err != nil {
		t.Fatal(err)
	}
	xc, err := c.ECCProgram(dst, xg, bits, sense.OpXOR, 2)
	if err != nil {
		t.Fatal(err)
	}
	if xc.Energy.Component(energy.ECCLogic) != 0 {
		t.Error("linear fast path charged encoder energy")
	}
	if xc.Seconds != 0 {
		t.Errorf("linear fast path added %g s latency, want 0", xc.Seconds)
	}
	if xc.Energy.Component(energy.SenseAmp) <= 0 {
		t.Error("linear fast path charged no spare sensing")
	}
}

func TestCorrectOrEscalateFixesSingleBitAndRepairsRow(t *testing.T) {
	c := newECCCtl(t)
	dst := memarch.RowAddr{Row: 9}
	const bits = 512
	words := make([]uint64, bits/64)
	rng := rand.New(rand.NewSource(9))
	for i := range words {
		words[i] = rng.Uint64()
	}
	if _, err := c.WriteRowFromHost(dst, words, bits); err != nil {
		t.Fatal(err)
	}
	// One stored data bit goes wrong (as a written-back sense flip would).
	c.mem.PeekRow(dst)[1] ^= 1 << 17
	v, err := c.CorrectOrEscalate(dst, bits, words)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.CorrectedBits != 1 || !v.Rewritten {
		t.Fatalf("single-bit repair came back %+v", v)
	}
	if got := c.mem.PeekRow(dst)[1]; got != words[1] {
		t.Fatalf("stored word not repaired: %#x != %#x", got, words[1])
	}
	tm := nvm.Get(nvm.PCM).Timing
	groups := backend.SenseGroups(c.mem.Geometry(), bits)
	if want := float64(groups)*tm.TCMD + tm.TWR; v.Seconds != want {
		t.Errorf("repair latency %g, want %g (pipeline + reprogram)", v.Seconds, want)
	}
}

func TestCorrectOrEscalateDoubleBitEscalates(t *testing.T) {
	c := newECCCtl(t)
	dst := memarch.RowAddr{Row: 10}
	const bits = 256
	words := []uint64{1, 2, 3, 4}
	if _, err := c.WriteRowFromHost(dst, words, bits); err != nil {
		t.Fatal(err)
	}
	c.mem.PeekRow(dst)[2] ^= 0b101 // two flips in one 64-bit group
	v, err := c.CorrectOrEscalate(dst, bits, words)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Uncorrectable || v.OK {
		t.Fatalf("double-bit error came back %+v, want Uncorrectable", v)
	}
}

func TestECCCorrectReadFixesSensedFlip(t *testing.T) {
	c := newECCCtl(t)
	addr := memarch.RowAddr{Row: 11}
	const bits = 192
	words := []uint64{7, 8, 9}
	if _, err := c.WriteRowFromHost(addr, words, bits); err != nil {
		t.Fatal(err)
	}
	sensed := append([]uint64(nil), words...)
	sensed[0] ^= 1 << 40
	v, err := c.ECCCorrectRead(addr, bits, sensed)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.CorrectedBits != 1 {
		t.Fatalf("read correction came back %+v", v)
	}
	if sensed[0] != words[0] {
		t.Fatalf("sensed word not corrected: %#x != %#x", sensed[0], words[0])
	}
	// A row never written through the ECC path passes through untouched.
	other := memarch.RowAddr{Row: 12}
	raw := []uint64{0xffff, 0, 0}
	v2, err := c.ECCCorrectRead(other, bits, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.OK || v2.Seconds != 0 || v2.CorrectedBits != 0 {
		t.Fatalf("unencoded row decode came back %+v, want free no-op", v2)
	}
}

// TestECCStoredEntryNeverChanges pins the invariant that lets a batch
// sandbox that borrows a row share its check words with the live memory
// instead of copying them: once stored, a row's check words are never
// modified. The decodes inject sense flips into their own copy, an
// in-place repair leaves the check words alone, and a later program of
// the row stores a new slice.
func TestECCStoredEntryNeverChanges(t *testing.T) {
	c := newECCCtl(t)
	// An offset tolerance above every read margin makes single-row reads
	// flip at the full rate, so every decode sees flipped check bits.
	scfg := analog.DefaultSenseConfig()
	scfg.OffsetTol = 0.99
	in, err := fault.New(fault.Config{Seed: 3, SenseFlipRate: 1e-3}, c.mem.Tech(), scfg,
		ECCRowBits(c.mem.Geometry(), c.ECCCodec()), c.Ledger())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachInjector(in); err != nil {
		t.Fatal(err)
	}
	dst := memarch.RowAddr{Row: 9}
	const bits = 4096
	words := make([]uint64, bits/64)
	rng := rand.New(rand.NewSource(9))
	for i := range words {
		words[i] = rng.Uint64()
	}
	if _, err := c.WriteRowFromHost(dst, words, bits); err != nil {
		t.Fatal(err)
	}
	_, stored, ok := c.mem.Check(dst)
	if !ok {
		t.Fatal("no check words stored for the written row")
	}
	want := append([]uint64(nil), stored...)
	c.mem.MutableRow(dst)[1] ^= 1 << 17 // a stored data error to repair
	for i := 0; i < 16; i++ {
		if _, err := c.CorrectOrEscalate(dst, bits, words); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ECCCorrectRead(dst, bits, append([]uint64(nil), words...)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ledger().Count[ledger.SenseFlips] == 0 {
		t.Fatal("no sense flips injected; the decodes were never exposed")
	}
	if !bitvec.EqualWords(stored, want, len(want)*64) {
		t.Fatal("a decode or repair modified the stored check words")
	}
	if _, err := c.WriteRowFromHost(dst, invert(words), bits); err != nil {
		t.Fatal(err)
	}
	if _, now, _ := c.mem.Check(dst); &now[0] == &stored[0] || !bitvec.EqualWords(stored, want, len(want)*64) {
		t.Fatal("reprogramming the row wrote into the previously stored check words")
	}
}

func TestECCStuckSpareColumnStaysHonest(t *testing.T) {
	// Wear a row with an injector sized for data + spare columns until a
	// stuck bit lands in the spare stripe; the stored check bits must carry
	// it, and the decoder must absorb it as a check-bit correction.
	c := newECCCtl(t)
	rowBits := ECCRowBits(c.mem.Geometry(), c.ECCCodec())
	if rowBits <= c.mem.Geometry().RowBits() {
		t.Fatal("ECCRowBits must extend past the data row")
	}
	in, err := fault.New(fault.Config{Seed: 21, WearLimit: 1}, c.mem.Tech(), analog.DefaultSenseConfig(), rowBits, c.Ledger())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachInjector(in); err != nil {
		t.Fatal(err)
	}

	dataBits := c.mem.Geometry().RowBits()
	bits := dataBits // full-width rows so the whole spare stripe is in play
	words := make([]uint64, bits/64)
	for i := range words {
		words[i] = 0xaaaaaaaaaaaaaaaa
	}
	found := false
	for row := 0; row < 512 && !found; row++ {
		addr := memarch.RowAddr{Row: row}
		if _, err := c.WriteRowFromHost(addr, words, bits); err != nil {
			t.Fatal(err)
		}
		for _, b := range c.mem.Wear(addr).Stuck {
			// Only spare positions inside the packed check words of this
			// vector length are observable.
			if b.Pos >= dataBits && b.Pos < dataBits+c.ECCCodec().CheckRowBits(bits) {
				found = true
			}
		}
		if !found {
			continue
		}
		// Re-write so the stuck spare cell corrupts the fresh check bits.
		if _, err := c.WriteRowFromHost(addr, words, bits); err != nil {
			t.Fatal(err)
		}
		v, err := c.CorrectOrEscalate(addr, bits, words)
		if err != nil {
			t.Fatal(err)
		}
		// The stuck spare cell either flipped a check bit (absorbed as a
		// correction) or happened to agree with the encoded value (clean);
		// either way the data must verify OK — unless the same worn row
		// also has stuck data bits, in which case escalation is correct.
		if !v.OK && !v.Uncorrectable {
			t.Fatalf("stuck spare column verify came back %+v", v)
		}
	}
	if !found {
		t.Fatal("no stuck bit landed in the spare stripe after 512 worn rows")
	}
}
