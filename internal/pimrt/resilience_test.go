package pimrt

import (
	"errors"
	"math/rand"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// newResilientSched builds a scheduler with fault injection and the default
// resilience policy over a fresh PCM memory.
func newResilientSched(t *testing.T, geo memarch.Geometry, fc fault.Config) (*Scheduler, *pim.Controller) {
	t.Helper()
	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fc, nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), geo.RowBits(), ctl.Ledger())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachInjector(inj); err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{
		Ctl:    ctl,
		Verify: true,
	}
	return s, ctl
}

func fillRows(t *testing.T, ctl *pim.Controller, rows []memarch.RowAddr, w int, rng *rand.Rand) []uint64 {
	t.Helper()
	want := make([]uint64, w)
	for _, a := range rows {
		words := make([]uint64, w)
		for j := range words {
			words[j] = rng.Uint64()
			want[j] |= words[j]
		}
		if err := ctl.Memory().WriteRow(a, words); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// The tentpole guarantee: even at a sense-flip rate that makes every deep
// OR fail, the resilient scheduler returns the exact digital result, paying
// with retries and depth reductions instead of wrong bits.
func TestResilientORMatchesGoldenUnderHeavyFlips(t *testing.T) {
	s, ctl := newResilientSched(t, memarch.Default(),
		fault.Config{Seed: 17, SenseFlipRate: 1})
	rng := rand.New(rand.NewSource(4))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
	}
	want := fillRows(t, ctl, rows, w, rng)
	dst := memarch.RowAddr{Subarray: 3, Row: 900}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("word %d wrong despite resilience", j)
		}
	}
	st := &ctl.Ledger().Count
	if st[ledger.Retries] == 0 || st[ledger.Verifies] == 0 {
		t.Fatalf("a flip rate of 1 must force retries and verifies: %v", st)
	}
	if st[ledger.DepthReductions] == 0 {
		t.Fatalf("a 128-row OR at flip rate 1 must take the depth-split rung: %v", st)
	}
	if st[ledger.BitsCorrected] == 0 {
		t.Fatalf("no corrected bits recorded: %v", st)
	}
}

// A chained OR (wider than MaxORRows, so every link after the first
// re-reads its accumulator) under a flip rate of 1: when a link falls to
// the depth-split rung, the accumulator a failed attempt clobbered must be
// restored before the split re-reads it, or the garbage lands in dst.
func TestChainedORUnderFlipsRestoresAccumulator(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s, ctl := newResilientSched(t, memarch.Default(),
			fault.Config{Seed: seed, SenseFlipRate: 1})
		rng := rand.New(rand.NewSource(seed + 100))
		const bits = 4096
		w := bitvec.WordsFor(bits)
		rows := make([]memarch.RowAddr, 200) // > MaxORRows -> chained links
		for i := range rows {
			rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
		}
		want := fillRows(t, ctl, rows, w, rng)
		dst := memarch.RowAddr{Subarray: 3, Row: 900}
		res, err := s.Execute(sense.OpOR, rows, bits, dst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := ctl.Memory().ReadRow(res.FinalDst)
		bad := 0
		for j := range want {
			if got[j] != want[j] {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("seed %d: %d/%d words wrong in stored dst despite resilience (ledger %v)",
				seed, bad, w, ctl.Ledger().Count)
		}
	}
}

// A request that takes the depth-split rung re-enters request once per
// link. The links compute their references one nesting level down, so
// they cannot overwrite the outer request's own reference, which it
// returns and which the SECDED path re-encodes the destination from.
// Each operand sets one bit of its own, so every partial OR of a link
// differs from the whole.
func TestDepthSplitKeepsOuterGolden(t *testing.T) {
	s, ctl := newResilientSched(t, memarch.Default(),
		fault.Config{Seed: 17, SenseFlipRate: 1})
	const bits = 4096
	want := make([]uint64, bitvec.WordsFor(bits))
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
		words := make([]uint64, len(want))
		pos := i * 31
		words[pos/64] = 1 << (pos % 64)
		want[pos/64] |= words[pos/64]
		if err := ctl.Memory().WriteRow(rows[i], words); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 3, Row: 900}
	var res ScheduleResult
	words, err := s.request(sense.OpOR, rows, bits, &dst, nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Ledger().Count[ledger.DepthReductions] == 0 {
		t.Fatal("a 128-row OR at flip rate 1 must take the depth-split rung")
	}
	if !bitvec.FromWords(bits, words).Equal(bitvec.FromWords(bits, want)) {
		t.Fatal("the request returned a reference other than its own result")
	}
}

// Fixed-arity ops have no depth to split; they must degrade straight to the
// serial digital path, which senses one row at a time at the read margin.
func TestResilientANDFallsBackToInterDigital(t *testing.T) {
	s, ctl := newResilientSched(t, memarch.Default(),
		fault.Config{Seed: 23, SenseFlipRate: 1})
	rng := rand.New(rand.NewSource(9))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	srcs := []memarch.RowAddr{{Subarray: 1, Row: 0}, {Subarray: 1, Row: 1}}
	a := make([]uint64, w)
	b := make([]uint64, w)
	for j := 0; j < w; j++ {
		a[j], b[j] = rng.Uint64(), rng.Uint64()
	}
	if err := ctl.Memory().WriteRow(srcs[0], a); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Memory().WriteRow(srcs[1], b); err != nil {
		t.Fatal(err)
	}
	dst := memarch.RowAddr{Subarray: 1, Row: 7}
	res, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := 0; j < w; j++ {
		if got[j] != (a[j] & b[j]) {
			t.Fatalf("word %d wrong despite resilience", j)
		}
	}
	st := &ctl.Ledger().Count
	if st[ledger.InterFallbacks] == 0 || st[ledger.HostFallbacks] != 0 {
		t.Fatalf("InterFallbacks=%d HostFallbacks=%d, want the inter rung and no host rung",
			st[ledger.InterFallbacks], st[ledger.HostFallbacks])
	}
}

// preWear programs a row repeatedly so the wear model mints stuck-at bits.
func preWear(t *testing.T, ctl *pim.Controller, addr memarch.RowAddr, bits, times int) {
	t.Helper()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for i := 0; i < times; i++ {
		if _, err := ctl.WriteRowFromHost(addr, ones, bits); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWornDestinationRetiredAndRemapped(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	// Full-row vectors: stuck-at positions are drawn across the whole row,
	// so the verified window must cover it.
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
	// 20 programs at WearLimit=2 mint ~10 stuck bits; with all-ones data at
	// least one is stuck at 0, so the op's writeback cannot stick.
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	preWear(t, ctl, dst, bits, 20)

	alloc, err := NewAllocatorTail(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Alloc = alloc
	res, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDst == dst {
		t.Fatal("damaged destination was not remapped")
	}
	got := ctl.Memory().ReadRow(res.FinalDst)
	for j := 0; j < w; j++ {
		if got[j] != ^uint64(0) {
			t.Fatalf("word %d wrong after remap", j)
		}
	}
	st := &ctl.Ledger().Count
	if st[ledger.RowsRetired] == 0 {
		t.Fatalf("no rows retired: %v", st)
	}
	if st[ledger.BitsCorrected] == 0 {
		t.Fatal("the intercepted stuck bits were not counted")
	}
}

func TestLadderExhaustsLoudlyWithoutRemap(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	// Full-row vectors: stuck-at positions are drawn across the whole row,
	// so the verified window must cover it.
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

	// No allocator: the ladder must fail with the sentinel, not return a
	// row that silently holds corrupted bits.
	_, err := s.Execute(sense.OpAND, srcs, bits, dst)
	if !errors.Is(err, ErrResilienceExhausted) {
		t.Fatalf("err=%v, want ErrResilienceExhausted", err)
	}
}

// A depth split runs its links one nesting level below the request it
// splits, in that level's own link buffer, so the outer request's operands
// survive for its later rungs. The destination's only stuck cell (bit 0,
// stuck at 0) disagrees only with the last operand, so each split's early
// links verify and its last exhausts; the inter rung must then re-run the
// original 16 operands, not a buffer the split's links rewrote.
func TestDepthSplitKeepsOuterOperands(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 1})
	const bits = 512
	srcs := make([]memarch.RowAddr, 16)
	for i := range srcs {
		srcs[i] = memarch.RowAddr{Subarray: 2, Row: i}
		words := make([]uint64, bitvec.WordsFor(bits))
		words[1] = 1 << i
		if i == len(srcs)-1 {
			words[0] = 1
		}
		if err := ctl.Memory().WriteRow(srcs[i], words); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	ctl.Memory().SetWear(dst, memarch.Wear{Stuck: []memarch.StuckBit{{Pos: 0}}})

	_, err := s.Execute(sense.OpOR, srcs, bits, dst)
	if !errors.Is(err, ErrResilienceExhausted) {
		t.Fatalf("err=%v, want ErrResilienceExhausted", err)
	}
	// Three outer splits, plus one inside the depth-4 split's last link
	// (itself four operands); every exhausted link and the outer request
	// walk the inter and host rungs.
	st := &ctl.Ledger().Count
	if st[ledger.DepthReductions] != 4 || st[ledger.InterFallbacks] != 5 || st[ledger.HostFallbacks] != 5 {
		t.Fatalf("DepthReductions=%d InterFallbacks=%d HostFallbacks=%d, want 4, 5, 5",
			st[ledger.DepthReductions], st[ledger.InterFallbacks], st[ledger.HostFallbacks])
	}
}

// A verified host write into a worn row with no allocator must fail
// with the sentinel, under read-back and under SECDED (which also reports
// the uncorrectable syndrome), not leave a row that silently holds
// corrupted bits.
func TestHostWriteExhaustsLoudlyWithoutRemap(t *testing.T) {
	geo := memarch.Default()
	fc := fault.Config{Seed: 31, WearLimit: 2}
	bits := geo.RowBits()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T, memarch.Geometry, fault.Config) (*Scheduler, *pim.Controller)
		ecc   bool
	}{
		{"readback", newResilientSched, false},
		{"ecc", newECCSched, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ctl := tc.build(t, geo, fc)
			dst := memarch.RowAddr{Subarray: 2, Row: 500}
			preWear(t, ctl, dst, bits, 20)
			target := dst
			_, err := s.Write(&target, ones, bits)
			if !errors.Is(err, ErrResilienceExhausted) {
				t.Fatalf("err=%v, want ErrResilienceExhausted", err)
			}
			if tc.ecc && !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("err=%v, want ErrUncorrectable too", err)
			}
			if target != dst {
				t.Fatalf("target moved to %v with no allocator", target)
			}
			if n := ctl.Ledger().Count[ledger.Retries]; n != maxRetries {
				t.Fatalf("%d retries, want %d", n, maxRetries)
			}
		})
	}
}

// A depth-split link that exhausts its own ladder does not end the
// request: the split marks the destination dirty and tries the next
// depth, and only then do the inter and host rungs run. Into a worn
// destination with no allocator every link exhausts, so each nesting
// level walks every depth and every rung, and the counts pin that walk.
func TestSplitLinkExhaustionFallsThrough(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	bits := geo.RowBits()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	srcs := make([]memarch.RowAddr, 16)
	for i := range srcs {
		srcs[i] = memarch.RowAddr{Subarray: 2, Row: i}
		if err := ctl.Memory().WriteRow(srcs[i], ones); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 2, Row: 500}
	preWear(t, ctl, dst, bits, 20)

	_, err := s.Execute(sense.OpOR, srcs, bits, dst)
	if !errors.Is(err, ErrResilienceExhausted) {
		t.Fatalf("err=%v, want ErrResilienceExhausted", err)
	}
	st := &ctl.Ledger().Count
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"DepthReductions", st[ledger.DepthReductions], 7},
		{"InterFallbacks", st[ledger.InterFallbacks], 8},
		{"HostFallbacks", st[ledger.HostFallbacks], 8},
		{"Retries", st[ledger.Retries], 72},
		{"Verifies", st[ledger.Verifies], 96},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// Satellite: off-by-one boundaries of the scheduler's chaining, both at the
// intra one-step depth (MaxORRows) and at the inter combine cap
// (InterORLimit).
func TestChainingBoundaries(t *testing.T) {
	t.Run("intra-depth", func(t *testing.T) {
		cases := []struct {
			rows int
			want int // hardware requests
		}{
			{127, 1},
			{128, 1}, // exactly one full-depth op
			{129, 2}, // one extra row forces a chained second op
			{255, 2}, // 128 + (1 acc + 127)
			{256, 3}, // 128 + 127 + 1 remaining
		}
		for _, tc := range cases {
			s, ctl := newSched(t)
			rng := rand.New(rand.NewSource(int64(tc.rows)))
			const bits = 512
			w := bitvec.WordsFor(bits)
			rows := make([]memarch.RowAddr, tc.rows)
			for i := range rows {
				rows[i] = memarch.RowAddr{Subarray: 5, Row: i}
			}
			want := fillRows(t, ctl, rows, w, rng)
			dst := memarch.RowAddr{Subarray: 5, Row: 1000}
			res, err := s.Execute(sense.OpOR, rows, bits, dst)
			if err != nil {
				t.Fatalf("%d rows: %v", tc.rows, err)
			}
			if res.Requests != tc.want {
				t.Errorf("%d rows: %d requests, want %d", tc.rows, res.Requests, tc.want)
			}
			got := ctl.Memory().ReadRow(dst)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%d rows: word %d wrong", tc.rows, j)
				}
			}
		}
	})

	t.Run("inter-limit", func(t *testing.T) {
		// A geometry with 512 subarrays in one bank, so an inter combine
		// can legally exceed InterORLimit operands.
		geo := memarch.Geometry{
			Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1,
			BanksPerChip: 1, SubarraysPerBank: 512, MatsPerSubarray: 1,
			RowsPerSubarray: 4, MatRowBits: 64, MuxRatio: 32,
		}
		cases := []struct {
			subs int
			want int
		}{
			{pim.InterORLimit - 1, 1},
			{pim.InterORLimit, 1},     // exactly one inter request
			{pim.InterORLimit + 1, 2}, // one over the cap chains
		}
		for _, tc := range cases {
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
			rng := rand.New(rand.NewSource(int64(tc.subs)))
			const bits = 64
			rows := make([]memarch.RowAddr, tc.subs)
			for i := range rows {
				rows[i] = memarch.RowAddr{Subarray: i, Row: 0}
			}
			want := fillRows(t, ctl, rows, 1, rng)
			dst := memarch.RowAddr{Subarray: 0, Row: 1}
			res, err := s.Execute(sense.OpOR, rows, bits, dst)
			if err != nil {
				t.Fatalf("%d subarrays: %v", tc.subs, err)
			}
			if res.Requests != tc.want {
				t.Errorf("%d subarrays: %d requests, want %d", tc.subs, res.Requests, tc.want)
			}
			if got := ctl.Memory().ReadRow(dst); got[0] != want[0] {
				t.Fatalf("%d subarrays: wrong result", tc.subs)
			}
		}
	})
}

func TestRetiredRowsStayOutOfCirculation(t *testing.T) {
	a := newAlloc(t, 1)
	rows, err := a.AllocRows(4)
	if err != nil {
		t.Fatal(err)
	}
	a.Retire(rows[0])
	if a.RetiredRows() != 1 {
		t.Fatalf("RetiredRows=%d want 1", a.RetiredRows())
	}
	a.Free(rows) // includes the retired row, which must not re-enter
	again, err := a.AllocRows(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if r == rows[0] {
			t.Fatal("retired row handed out again")
		}
	}
	// Retiring a freed row removes it from the free list too.
	a.Free(again[:1])
	a.Retire(again[0])
	next, err := a.AllocRows(1)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] == again[0] {
		t.Fatal("retired free-list row handed out again")
	}
}

func TestOutOfMemoryWrapsContext(t *testing.T) {
	small := memarch.Default()
	small.Channels = 1
	small.RanksPerChannel = 1
	small.BanksPerChip = 1
	small.SubarraysPerBank = 1
	small.RowsPerSubarray = 4
	a, err := NewAllocatorTail(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocRows(8); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocRows err=%v, want wrapped ErrOutOfMemory", err)
	}
	// A failed allocation takes no rows: the subarray's three usable rows
	// are all still there for one group.
	if _, err := a.AllocGroupRows(3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocGroupRows(3); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocGroupRows err=%v, want wrapped ErrOutOfMemory", err)
	}
}

// An OR across subarrays whose partial moved off its worn scratch row
// onto a row borrowed from the allocator must give that row back when
// the OR fails. The first group's scratch row is worn. When the combine
// fails, the allocator lends one healthy row, which takes the partial,
// and the worn destination has none left to remap onto. When the group
// itself fails, the allocator lends twelve worn rows, one per attempt of
// the group's three rungs, so its last attempt leaves the partial on a
// borrowed row that was never retired.
func TestFailedORReturnsBorrowedPartials(t *testing.T) {
	geo := memarch.Geometry{
		Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1,
		BanksPerChip: 2, SubarraysPerBank: 2, MatsPerSubarray: 1,
		RowsPerSubarray: 32, MatRowBits: 1024, MuxRatio: 8,
	}
	bits := geo.RowBits()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	srcs := []memarch.RowAddr{
		{Subarray: 0, Row: 0}, {Subarray: 0, Row: 1},
		{Subarray: 1, Row: 0}, {Subarray: 1, Row: 1},
	}
	dst := memarch.RowAddr{Bank: 1, Subarray: 0, Row: 0}
	for _, tc := range []struct {
		name       string
		spares     int  // rows the allocator has left
		wornSpares bool // whether those rows are worn too
		wornDst    bool
		retired    int64
	}{
		{"combine fails", 1, false, true, 1},
		{"group fails", 3 * (maxRetries + 1), true, false, 3 * (maxRetries + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
			for _, a := range srcs {
				if err := ctl.Memory().WriteRow(a, ones); err != nil {
					t.Fatal(err)
				}
			}
			preWear(t, ctl, ScratchRow(geo, srcs[0]), bits, 20)
			if tc.wornDst {
				preWear(t, ctl, dst, bits, 20)
			}
			alloc, err := NewAllocatorTail(geo, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alloc.AllocRows(alloc.RowsLeft() - tc.spares); err != nil {
				t.Fatal(err)
			}
			if tc.wornSpares {
				// The frontier hands the spares out in address order.
				mark := alloc.Mark()
				rows, err := alloc.AllocRows(tc.spares)
				if err != nil {
					t.Fatal(err)
				}
				alloc.Rollback(mark, rows)
				for _, r := range rows {
					preWear(t, ctl, r, bits, 20)
				}
			}
			s.Alloc = alloc
			if _, err := s.Execute(sense.OpOR, srcs, bits, dst); !errors.Is(err, ErrResilienceExhausted) {
				t.Fatalf("err=%v, want ErrResilienceExhausted", err)
			}
			if n := ctl.Ledger().Count[ledger.RowsRetired]; n != tc.retired {
				t.Fatalf("%d rows retired, want %d", n, tc.retired)
			}
			// A row is retired only when a fresh one replaced it, so the
			// allocator and the ledger agree.
			if n, led := alloc.RetiredRows(), ctl.Ledger().Count[ledger.RowsRetired]; int64(n) != led {
				t.Fatalf("allocator retired %d rows, ledger counted %d", n, led)
			}
			if n := alloc.RowsLeft(); n != 1 {
				t.Fatalf("RowsLeft()=%d after the failed OR, want the borrowed row back (1)", n)
			}
		})
	}
}

// TestORSkipsRetiredScratchRow runs four identical ORs across two
// subarrays, each into the previous one's destination, after the first
// subarray's scratch row wore out. The first OR retires that row; every
// later one must put its partial in a row on loan instead of failing on
// the worn row, retiring it again and borrowing a stand-in. So the worn
// row takes no further program, and the allocator retires exactly the
// rows the ledger counts.
func TestORSkipsRetiredScratchRow(t *testing.T) {
	geo := memarch.Geometry{
		Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1,
		BanksPerChip: 2, SubarraysPerBank: 2, MatsPerSubarray: 1,
		RowsPerSubarray: 32, MatRowBits: 1024, MuxRatio: 8,
	}
	bits := geo.RowBits()
	ones := make([]uint64, bitvec.WordsFor(bits))
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	srcs := []memarch.RowAddr{
		{Subarray: 0, Row: 0}, {Subarray: 0, Row: 1},
		{Subarray: 1, Row: 0}, {Subarray: 1, Row: 1},
	}
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 31, WearLimit: 2})
	for _, a := range srcs {
		if err := ctl.Memory().WriteRow(a, ones); err != nil {
			t.Fatal(err)
		}
	}
	scratch := ScratchRow(geo, srcs[0])
	preWear(t, ctl, scratch, bits, 20)
	alloc, err := NewAllocatorTail(geo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.AllocRows(10); err != nil {
		t.Fatal(err)
	}
	s.Alloc = alloc
	dst := memarch.RowAddr{Bank: 1, Subarray: 0, Row: 0}
	var programs int64
	for op := 0; op < 4; op++ {
		res, err := s.Execute(sense.OpOR, srcs, bits, dst)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		dst = res.FinalDst
		n := ctl.Memory().RowWriteCount(scratch)
		if op == 0 {
			if !alloc.Retired(scratch) {
				t.Fatal("the first OR did not retire the worn scratch row")
			}
			programs = n
		} else if n != programs {
			t.Fatalf("op %d: worn scratch row programmed %d times, %d after the op that retired it", op, n, programs)
		}
		if n, led := alloc.RetiredRows(), ctl.Ledger().Count[ledger.RowsRetired]; int64(n) != led {
			t.Fatalf("op %d: allocator retired %d rows, ledger counted %d", op, n, led)
		}
		if got := ctl.Memory().PeekRow(dst); !bitvec.EqualWords(got, ones, bits) {
			t.Fatalf("op %d: destination does not hold the OR", op)
		}
	}
}
