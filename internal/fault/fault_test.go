package fault

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

func newPCM(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg, nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 1<<19, new(ledger.Ledger))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEnabled(t *testing.T) {
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Seed: 7}, false},
		{Config{DriftSeconds: 100}, false},
		{Config{SenseFlipRate: 1e-6}, true},
		{Config{ActivationFailRate: 1e-4}, true},
		{Config{WearLimit: 100}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{SenseFlipRate: -1},
		{SenseFlipRate: 1.5},
		{ActivationFailRate: -0.1},
		{ActivationFailRate: 2},
		{WearLimit: -1},
		{DriftSeconds: -1},
		{SenseFlipRate: math.NaN()},
		{ActivationFailRate: math.NaN()},
		{DriftSeconds: math.NaN()},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 64, new(ledger.Ledger)); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestFlipProbOrderedByMargin(t *testing.T) {
	// The whole point of the margin-derived model: deep ORs flip much more
	// than shallow ones, which flip much more than plain reads. The ladder
	// the runtime climbs down must be monotone.
	in := newPCM(t, Config{SenseFlipRate: 1e-3})
	p128 := in.FlipProb(sense.OpOR, 128)
	p64 := in.FlipProb(sense.OpOR, 64)
	p2 := in.FlipProb(sense.OpOR, 2)
	pRead := in.FlipProb(sense.OpRead, 1)
	if !(p128 > p64 && p64 > p2 && p2 >= pRead) {
		t.Fatalf("flip probabilities not ordered by margin: OR128=%g OR64=%g OR2=%g read=%g",
			p128, p64, p2, pRead)
	}
	// Halving the depth of a failing 128-row OR must buy real safety.
	if p128 < 10*p64 {
		t.Errorf("depth reduction 128->64 should cut the flip rate by >=10x, got %g -> %g", p128, p64)
	}
	if p128 > in.cfg.SenseFlipRate {
		t.Errorf("flip probability %g exceeds the configured rate %g", p128, in.cfg.SenseFlipRate)
	}
}

func TestFlipSensedDeterministic(t *testing.T) {
	run := func() (int, []uint64) {
		in := newPCM(t, Config{Seed: 42, SenseFlipRate: 0.01})
		words := make([]uint64, 1<<10)
		n := 0
		for i := 0; i < 20; i++ {
			n += in.FlipSensed(sense.OpOR, 128, 1<<16, words)
		}
		return n, words
	}
	n1, w1 := run()
	n2, w2 := run()
	if n1 != n2 {
		t.Fatalf("same seed, different flip counts: %d vs %d", n1, n2)
	}
	if n1 == 0 {
		t.Fatal("0.01 rate over 20 deep ORs of 64 Kbit flipped nothing")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("same seed, different flip positions at word %d", i)
		}
	}
}

func TestFlipSensedZeroRate(t *testing.T) {
	in := newPCM(t, Config{WearLimit: 10}) // enabled, but no sense flips
	words := make([]uint64, 16)
	if n := in.FlipSensed(sense.OpOR, 128, 1024, words); n != 0 {
		t.Fatalf("flipped %d bits with SenseFlipRate=0", n)
	}
	for _, w := range words {
		if w != 0 {
			t.Fatal("words mutated with SenseFlipRate=0")
		}
	}
}

func TestActivationFault(t *testing.T) {
	in := newPCM(t, Config{ActivationFailRate: 0.01})
	if in.ActivationFault(1) {
		t.Fatal("single-row activation faulted")
	}
	faults := 0
	for i := 0; i < 1000; i++ {
		if in.ActivationFault(128) {
			faults++
		}
	}
	// p = 127*0.01 > 1 clamps to certainty.
	if faults != 1000 {
		t.Fatalf("128-row activation at clamped p=1 faulted %d/1000 times", faults)
	}
	if got := in.led.Count[ledger.ActivationFaults]; got != 1000 {
		t.Fatalf("stats recorded %d activation faults, want 1000", got)
	}
}

// program applies one unshared program of row key to its wear record w.
func program(in *Injector, key uint64, w *memarch.Wear) {
	in.RecordWriteShared(key, w, 1)
}

func TestWearMintsStuckBits(t *testing.T) {
	in := newPCM(t, Config{Seed: 1, WearLimit: 10})
	const key = 12345
	var w memarch.Wear
	for i := 0; i < 9; i++ {
		program(in, key, &w)
	}
	if len(w.Stuck) != 0 {
		t.Fatal("row worn before reaching the limit")
	}
	program(in, key, &w)
	if len(w.Stuck) == 0 {
		t.Fatal("row not worn after WearLimit programs")
	}
	if w.Events != 10 {
		t.Fatalf("wear events %d, want 10", w.Events)
	}
	// Another WearLimit programs mint a second stuck bit, in a new list:
	// the first one, which a borrowed row may share, stays as it was.
	first := w.Stuck
	for i := 0; i < 10; i++ {
		program(in, key, &w)
	}
	if len(w.Stuck) != 2 || len(first) != 1 || cap(first) != 1 {
		t.Fatalf("%d stuck bits after 2x WearLimit programs (first list %d/%d), want 2 in a new list",
			len(w.Stuck), len(first), cap(first))
	}
	if got := in.led.Count[ledger.StuckRows]; got != 1 {
		t.Fatalf("StuckRows = %d, want 1", got)
	}
	if got := in.led.Count[ledger.RowWrites]; got != 20 {
		t.Fatalf("RowWrites = %d, want 20", got)
	}
}

// A row holding one of R replicas accrues one wear event per R programs,
// and a policy without a wear limit leaves the record alone.
func TestSharedProgramsWearSlower(t *testing.T) {
	in := newPCM(t, Config{Seed: 1, WearLimit: 2})
	var w memarch.Wear
	for i := 0; i < 5; i++ {
		if !in.RecordWriteShared(7, &w, 3) {
			t.Fatalf("program %d left the record unchanged", i)
		}
	}
	if w.Events != 1 || w.Frac != 2 || len(w.Stuck) != 0 {
		t.Fatalf("5 programs at share 3: %+v, want 1 event, 2 toward the next, no stuck bit", w)
	}
	in.RecordWriteShared(7, &w, 3)
	if w.Events != 2 || w.Frac != 0 || len(w.Stuck) != 1 {
		t.Fatalf("6 programs at share 3: %+v, want 2 events and one stuck bit", w)
	}
	free := newPCM(t, Config{SenseFlipRate: 1e-3})
	var none memarch.Wear
	if free.RecordWriteShared(7, &none, 1) || none.Events != 0 {
		t.Fatalf("no wear limit: record changed to %+v", none)
	}
	if got := free.led.Count[ledger.RowWrites]; got != 1 {
		t.Fatalf("RowWrites = %d, want 1", got)
	}
}

func TestStuckBitsDeterministicPerRow(t *testing.T) {
	// The same (seed, row, event) must always fail the same way, regardless
	// of what else happened in between — tests and sweeps rely on it.
	mint := func(extraTraffic bool) []memarch.StuckBit {
		in := newPCM(t, Config{Seed: 9, WearLimit: 3})
		if extraTraffic {
			var other memarch.Wear
			for i := 0; i < 50; i++ {
				program(in, 777, &other)
				in.ActivationFault(64)
			}
		}
		var w memarch.Wear
		for i := 0; i < 3; i++ {
			program(in, 42, &w)
		}
		return w.Stuck
	}
	a, b := mint(false), mint(true)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("stuck bits depend on unrelated traffic: %+v vs %+v", a, b)
	}
}

func TestCorruptStored(t *testing.T) {
	in := newPCM(t, Config{Seed: 3, WearLimit: 1})
	var w memarch.Wear
	program(in, 7, &w)
	b := w.Stuck[0]
	row := make([]uint64, 1<<13)
	// Program the complement of the stuck value: the cell must override it.
	if !b.Val {
		row[b.Pos/64] |= 1 << uint(b.Pos%64)
	}
	if forced := in.CorruptStoredOffset(w.Stuck, row, 0); forced != 1 {
		t.Fatalf("forced %d bits, want 1", forced)
	}
	got := row[b.Pos/64]&(1<<uint(b.Pos%64)) != 0
	if got != b.Val {
		t.Fatal("stored bit does not match the stuck value")
	}
	// Writing the stuck value itself is unharmed.
	if forced := in.CorruptStoredOffset(w.Stuck, row, 0); forced != 0 {
		t.Fatalf("agreeing write forced %d bits, want 0", forced)
	}
	if got := in.led.Count[ledger.StuckBitsForced]; got != 1 {
		t.Fatalf("StuckBitsForced = %d, want 1", got)
	}
}

func TestCorruptStoredOffset(t *testing.T) {
	// Mint stuck bits until one lands in the "spare" region past dataBits and
	// one in the data region, then check each corrupts only its own slice.
	in := newPCM(t, Config{Seed: 5, WearLimit: 1})
	const key = 11
	const dataBits = 1 << 18 // injector rowBits 1<<19 leaves a huge spare tail
	var w memarch.Wear
	var spare, data *memarch.StuckBit
	for i := 0; i < 4096 && (spare == nil || data == nil); i++ {
		program(in, key, &w)
		b := w.Stuck[len(w.Stuck)-1]
		if b.Pos >= dataBits && spare == nil {
			spare = &b
		}
		if b.Pos < dataBits && data == nil {
			data = &b
		}
	}
	if spare == nil || data == nil {
		t.Fatal("could not mint stuck bits on both sides of the data boundary")
	}

	dataRow := make([]uint64, dataBits/64)
	spareRow := make([]uint64, (in.rowBits-dataBits)/64)
	// Program complements so every stuck bit in range must force.
	flip := func(row []uint64, pos int, val bool) {
		if !val {
			row[pos/64] |= 1 << uint(pos%64)
		}
	}
	flip(dataRow, data.Pos, data.Val)
	flip(spareRow, spare.Pos-dataBits, spare.Val)

	if forced := in.CorruptStoredOffset(w.Stuck, spareRow, dataBits); forced < 1 {
		t.Fatalf("spare region forced %d bits, want >= 1", forced)
	}
	got := spareRow[(spare.Pos-dataBits)/64]&(1<<uint((spare.Pos-dataBits)%64)) != 0
	if got != spare.Val {
		t.Fatal("spare bit does not match the stuck value")
	}
	// A data-region row sized dataBits must be untouched by spare positions:
	// Offset 0 skips positions past len(row).
	if forced := in.CorruptStoredOffset(w.Stuck, dataRow, 0); forced < 1 {
		t.Fatalf("data region forced %d bits, want >= 1", forced)
	}
	got = dataRow[data.Pos/64]&(1<<uint(data.Pos%64)) != 0
	if got != data.Val {
		t.Fatal("data bit does not match the stuck value")
	}
}

func TestDriftWidensMarginsReducesFlips(t *testing.T) {
	fresh := newPCM(t, Config{SenseFlipRate: 1e-3})
	aged := newPCM(t, Config{SenseFlipRate: 1e-3, DriftSeconds: 1e6})
	if pf, pa := fresh.FlipProb(sense.OpOR, 128), aged.FlipProb(sense.OpOR, 128); pa >= pf {
		t.Fatalf("drift should widen the 128-row margin and cut flips: fresh %g, aged %g", pf, pa)
	}
}

// sameStream draws a mixed sequence from got and from a fresh PCG seeded
// (seed1, seed2) and reports the first disagreement.
func sameStream(t *testing.T, what string, got *rand.Rand, seed1, seed2 uint64) {
	t.Helper()
	sameDraws(t, what, 200, got, rand.New(rand.NewPCG(seed1, seed2)))
}

// sameDraws draws n values of mixed kinds from got and want and reports
// the first disagreement. Every draw kind the injector makes is in the
// mix, and the odd IntN bound forces its rejection loop.
func sameDraws(t *testing.T, what string, n int, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int64(), want.Int64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.IntN(1<<19), want.IntN(1<<19)
		case 4:
			g, w = got.IntN(1_000_003), want.IntN(1_000_003)
		}
		if g != w {
			t.Fatalf("%s: draw %d %v, fresh PCG %v", what, i, g, w)
		}
	}
}

// TestReseedMatchesFreshSource pins that reseeding the injector's PCG in
// place yields exactly the stream a newly built PCG would: Reset rewinds
// to (Seed, 0) and BeginOp k to (Seed, splitmix64(k)). It reads through
// the injector's *rand.Rand, the one every draw takes.
func TestReseedMatchesFreshSource(t *testing.T) {
	const seed = 42
	cfg := Config{SenseFlipRate: 1e-3, Seed: seed}
	in := newPCM(t, cfg)
	in.rng.Int64() // advance the stream so the reseed has work to undo
	in.Reset()
	sameStream(t, "Reset", in.rng, seed, 0)
	for op := uint64(1); op <= 3; op++ {
		in.rng.Float64()
		in.BeginOp()
		sameStream(t, fmt.Sprintf("BeginOp %d", op), in.rng, seed, splitmix64(op))
	}

	// Against a freshly built injector: after Reset, a draw without
	// BeginOp is the (Seed, 0) stream ...
	in.rng.Int64()
	in.Reset()
	sameDraws(t, "Reset vs fresh injector", 200, in.rng, newPCM(t, cfg).rng)

	// ... and Reset, SetOpSeq(k), BeginOp is substream k+1, whatever the
	// stream held before.
	for _, k := range []int64{0, 1, 7, 1000} {
		in.rng.Float64()
		in.Reset()
		in.SetOpSeq(k)
		in.BeginOp()
		fresh := newPCM(t, cfg)
		fresh.SetOpSeq(k)
		fresh.BeginOp()
		if in.OpSeq() != k+1 || fresh.OpSeq() != k+1 {
			t.Fatalf("SetOpSeq(%d)+BeginOp: OpSeq %d, fresh %d, want %d", k, in.OpSeq(), fresh.OpSeq(), k+1)
		}
		sameDraws(t, fmt.Sprintf("substream %d vs fresh injector", k+1), 200, in.rng, fresh.rng)
	}
}

// TestResetZeroAllocs pins the pooled-sandbox reset: its rewind reseeds
// the PCG in place, and it allocates nothing.
func TestResetZeroAllocs(t *testing.T) {
	in := newPCM(t, Config{SenseFlipRate: 1e-3, Seed: 7})
	if allocs := testing.AllocsPerRun(100, in.Reset); allocs != 0 {
		t.Errorf("Reset: %v allocs/op, want 0", allocs)
	}
}

// TestBeginOpZeroAllocs pins that an op's reseed and its first draws
// allocate nothing.
func TestBeginOpZeroAllocs(t *testing.T) {
	in := newPCM(t, Config{SenseFlipRate: 1e-3, Seed: 7})
	allocs := testing.AllocsPerRun(100, func() {
		in.BeginOp()
		in.rng.Float64()
		in.rng.IntN(1 << 19)
	})
	if allocs != 0 {
		t.Errorf("BeginOp + 2 draws: %v allocs/op, want 0", allocs)
	}
}
