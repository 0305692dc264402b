package pim

import (
	"errors"
	"math/rand"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

func attachInjector(t testing.TB, c *Controller, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.New(cfg, c.mem.Tech(), analog.DefaultSenseConfig(), c.mem.Geometry().RowBits(), c.Ledger())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachInjector(in); err != nil {
		t.Fatal(err)
	}
	return in
}

// Satellite: table-driven rejection coverage. Every operand-set shape the
// controller must refuse, checked through both Classify and Execute so the
// wrapped sentinels stay programmable with errors.Is.
func TestRejectionTable(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	cases := []struct {
		name string
		srcs []memarch.RowAddr
		want error
	}{
		{
			name: "cross-channel",
			srcs: []memarch.RowAddr{{Channel: 0}, {Channel: 1}},
			want: ErrCrossRank,
		},
		{
			name: "cross-rank",
			srcs: []memarch.RowAddr{{Rank: 0}, {Rank: 0, Row: 1}, {Channel: 2}},
			want: ErrCrossRank,
		},
		{
			name: "shared-row",
			srcs: []memarch.RowAddr{{Row: 4}, {Row: 4}},
			want: ErrSharedRow,
		},
		{
			name: "shared-row-among-many",
			srcs: []memarch.RowAddr{{Row: 0}, {Row: 1}, {Row: 2}, {Row: 1}},
			want: ErrSharedRow,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Classify(tc.srcs); !errors.Is(err, tc.want) {
				t.Errorf("Classify: err=%v, want %v", err, tc.want)
			}
			if _, err := c.Execute(sense.OpOR, tc.srcs, 64, nil); !errors.Is(err, tc.want) {
				t.Errorf("Execute: err=%v, want %v", err, tc.want)
			}
			if _, err := c.Golden(nil, sense.OpOR, tc.srcs, 64); err == nil && tc.want == ErrCrossRank {
				// Golden has no placement constraint (pure math), but must
				// still reject invalid addresses; nothing to assert here.
				_ = err
			}
		})
	}
}

func TestActivationFaultSurfacesAsSentinel(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	// 127 extra rows x 0.01 clamps the transient failure to certainty.
	attachInjector(t, c, fault.Config{ActivationFailRate: 0.01})
	srcs := addrsInSubarray(128)
	_, err := c.Execute(sense.OpOR, srcs, 64, nil)
	if !errors.Is(err, backend.ErrActivationFault) {
		t.Fatalf("err=%v, want backend.ErrActivationFault", err)
	}
	// Single-row ops never activation-fault.
	if _, err := c.Execute(sense.OpRead, srcs[:1], 64, nil); err != nil {
		t.Fatalf("single-row read faulted: %v", err)
	}
}

func TestSenseFlipsCorruptDeepORNotWritePath(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	attachInjector(t, c, fault.Config{Seed: 5, SenseFlipRate: 0.5})
	rng := rand.New(rand.NewSource(11))
	srcs := addrsInSubarray(128)
	w := 1 << 7
	bits := w * 64
	want := make([]uint64, w)
	for _, a := range srcs {
		row := fillRow(t, c, a, w, rng)
		for i := range want {
			want[i] |= row[i]
		}
	}
	r, err := c.Execute(sense.OpOR, srcs, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range want {
		if r.Words[i] != want[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("a 0.5 flip rate over a 128-row OR corrupted nothing")
	}
	if c.Ledger().Count[ledger.SenseFlips] == 0 {
		t.Fatal("injector recorded no flips")
	}
}

func TestGoldenMatchesDigitalReference(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(3))
	srcs := addrsInSubarray(4)
	w := 8
	bits := w*64 - 13 // ragged tail
	rows := make([][]uint64, len(srcs))
	for i, a := range srcs {
		rows[i] = fillRow(t, c, a, w, rng)
	}
	ref := func(f func(a, b uint64) uint64, vs ...[]uint64) []uint64 {
		out := append([]uint64(nil), vs[0]...)
		for _, v := range vs[1:] {
			for i := range out {
				out[i] = f(out[i], v[i])
			}
		}
		if tail := uint(bits % 64); tail != 0 {
			out[len(out)-1] &= 1<<tail - 1
		}
		return out
	}
	cases := []struct {
		op   sense.Op
		n    int
		want []uint64
	}{
		{sense.OpRead, 1, ref(func(a, b uint64) uint64 { return a }, rows[0])},
		{sense.OpINV, 1, ref(func(a, b uint64) uint64 { return a }, invert(rows[0]))},
		{sense.OpAND, 2, ref(func(a, b uint64) uint64 { return a & b }, rows[0], rows[1])},
		{sense.OpXOR, 2, ref(func(a, b uint64) uint64 { return a ^ b }, rows[0], rows[1])},
		{sense.OpOR, 4, ref(func(a, b uint64) uint64 { return a | b }, rows...)},
	}
	// One buffer serves every case: Golden grows it from one word, then
	// overwrites what the previous case left in it.
	buf := []uint64{^uint64(0)}
	for _, tc := range cases {
		got, err := c.Golden(buf, tc.op, srcs[:tc.n], bits)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		buf = got
		if !bitvec.FromWords(bits, got).Equal(bitvec.FromWords(bits, tc.want)) {
			t.Errorf("%v: golden disagrees with the digital reference", tc.op)
		}
	}
	// Arity misuse errors.
	if _, err := c.Golden(nil, sense.OpAND, srcs[:3], bits); err == nil {
		t.Error("3-operand AND accepted")
	}
	if _, err := c.Golden(nil, sense.OpINV, srcs[:2], bits); err == nil {
		t.Error("2-operand INV accepted")
	}
	if _, err := c.Golden(nil, sense.OpOR, nil, bits); err == nil {
		t.Error("0-operand OR accepted")
	}
}

func invert(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	for i := range v {
		out[i] = ^v[i]
	}
	return out
}

func TestVerifyAgainstDistinguishesFlipFromWriteFault(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(7))
	dst := memarch.RowAddr{Row: 9}
	w := 4
	bits := w * 64
	stored := fillRow(t, c, dst, w, rng)

	golden := append([]uint64(nil), stored...)
	// Clean: stored == golden == claimed.
	v, err := c.VerifyAgainst(2, bits, dst, golden, stored)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.MismatchedBits != 0 || v.WriteFault {
		t.Fatalf("clean row: %+v", v)
	}
	if v.Seconds <= 0 || v.Energy.Total() <= 0 {
		t.Fatal("verification must cost time and energy")
	}

	// Sense flip: the writeback claimed (and stored) a wrong bit — stored
	// matches the claim, so the cells are fine; re-execution can fix it.
	bad := append([]uint64(nil), stored...)
	bad[0] ^= 1 << 17
	v, err = c.VerifyAgainst(2, bits, dst, bad, stored)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.MismatchedBits != 1 || v.WriteFault {
		t.Fatalf("flip case: %+v", v)
	}

	// Write fault: the cells hold something other than what the writeback
	// claimed — row damage, re-execution into it cannot help.
	v, err = c.VerifyAgainst(2, bits, dst, bad, bad)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || !v.WriteFault {
		t.Fatalf("write-fault case: %+v", v)
	}
}

func TestExecuteDigitalForcesInterPath(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	rng := rand.New(rand.NewSource(13))
	srcs := addrsInSubarray(2)
	w := 4
	bits := w * 64
	a := fillRow(t, c, srcs[0], w, rng)
	b := fillRow(t, c, srcs[1], w, rng)

	native, err := c.Execute(sense.OpAND, srcs, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	digital, err := c.ExecuteDigital(sense.OpAND, srcs, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if native.Class != ClassIntraSub {
		t.Fatalf("native class %v", native.Class)
	}
	if digital.Class != ClassInterSub {
		t.Fatalf("digital class %v, want forced inter-subarray", digital.Class)
	}
	if digital.Seconds <= native.Seconds {
		t.Fatal("the serial digital path should be slower than native intra")
	}
	for i := range digital.Words {
		if digital.Words[i] != (a[i] & b[i]) {
			t.Fatal("digital path computed wrong AND")
		}
	}
}

func TestWearCorruptsStoredRowAfterLimit(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	attachInjector(t, c, fault.Config{Seed: 2, WearLimit: 3})
	dst := memarch.RowAddr{Row: 5}
	w := c.mem.Geometry().RowBits() / 64
	words := make([]uint64, w) // all zero
	for i := 0; i < 5; i++ {
		if _, err := c.WriteRowFromHost(dst, words, w*64); err != nil {
			t.Fatal(err)
		}
	}
	if w := c.mem.Wear(dst); w.Events != 5 || len(w.Stuck) != 1 {
		t.Fatalf("wear record %+v after 5 programs at WearLimit 3, want 5 events and one stuck bit", w)
	}
	// The stuck bit must be visible in memory if its stuck value is 1
	// (all-zero writes disagree with a stuck-at-1 cell), and stats must
	// show the wear model engaged either way.
	if got := c.Ledger().Count[ledger.RowWrites]; got != 5 {
		t.Fatalf("RowWrites = %d, want 5", got)
	}
	stored := c.mem.PeekRow(dst)
	corrupted := 0
	for _, word := range stored {
		if word != 0 {
			corrupted++
		}
	}
	if forced := c.Ledger().Count[ledger.StuckBitsForced]; forced > 0 && corrupted == 0 {
		t.Fatalf("stats claim %d forced bits but memory holds the written zeros", forced)
	} else if forced == 0 && corrupted > 0 {
		t.Fatal("memory corrupted without the wear model claiming it")
	}
}

// Stuck cells can sit anywhere in a row, so a narrow write to a worn row
// must still show a stuck-at-1 cell far beyond the words it covers —
// whether the row was fresh, last held a narrow vector, or receives an
// op result.
func TestStuckBitBeyondNarrowWriteShows(t *testing.T) {
	c := newCtl(t, nvm.PCM)
	attachInjector(t, c, fault.Config{Seed: 2})
	const bits = 8192
	src := memarch.RowAddr{Row: 4}
	dst := memarch.RowAddr{Row: 5}
	pos := c.mem.Geometry().RowBits() - 3
	c.mem.SetWear(dst, memarch.Wear{Events: 1, Stuck: []memarch.StuckBit{{Pos: pos, Val: true}}})
	if pos/64 < bits/64 {
		t.Fatal("stuck cell inside the narrow write; the test is vacuous")
	}
	stuckShows := func(step string) {
		t.Helper()
		if c.mem.PeekRow(dst)[pos/64]>>(pos%64)&1 != 1 {
			t.Fatalf("%s: stuck-at-1 bit %d beyond the %d-bit write reads 0", step, pos, bits)
		}
	}
	zeros := make([]uint64, bits/64)
	for i := 0; i < 2; i++ {
		if _, err := c.WriteRowFromHost(dst, zeros, bits); err != nil {
			t.Fatal(err)
		}
		stuckShows("host write")
	}
	if _, err := c.WriteRowFromHost(src, zeros, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(sense.OpINV, []memarch.RowAddr{src}, bits, &dst); err != nil {
		t.Fatal(err)
	}
	stuckShows("op result")
	if got := c.Ledger().Count[ledger.StuckBitsForced]; got != 3 {
		t.Errorf("StuckBitsForced = %d, want 3", got)
	}
}
