package pim

import (
	"math/rand"
	"runtime"
	"testing"

	"pinatubo/internal/backend"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// bytesPerCall reports the heap bytes one call of f allocates, averaged
// over runs calls after two warm-up calls. Like testing.AllocsPerRun it
// measures on one P, so no other goroutine allocates during the measured
// calls.
func bytesPerCall(f func(), runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestUncachedExecuteRowSizedZeroAllocs pins that the uncached execution
// path allocates nothing whose size grows with the vector: with an
// injector attached (so the program cache is ineligible and every call
// lowers afresh), an intra-subarray OR and an ExecuteDigital AND allocate
// the same bytes per call at 1,024 and 16,384 bits. Both widths take one
// sense group on the default geometry, so their command sequences, and
// hence every allocation that is not row-sized, are the same size. The
// replay computes into the controller's result buffer and senses the
// digital path's flipped operands into one reused row.
func TestUncachedExecuteRowSizedZeroAllocs(t *testing.T) {
	const runs = 200
	measure := func(bits int) (or, and float64) {
		c := newCtl(t, nvm.PCM)
		attachInjector(t, c, fault.Config{Seed: 3, SenseFlipRate: 1e-4})
		srcs := addrsInSubarray(5)
		rng := rand.New(rand.NewSource(4))
		for _, a := range srcs {
			fillRow(t, c, a, bits/64, rng)
		}
		dst := srcs[4]
		or = bytesPerCall(func() {
			if _, err := c.Execute(sense.OpOR, srcs[:4], bits, &dst); err != nil {
				t.Fatal(err)
			}
		}, runs)
		and = bytesPerCall(func() {
			if _, err := c.ExecuteDigital(sense.OpAND, srcs[:2], bits, &dst); err != nil {
				t.Fatal(err)
			}
		}, runs)
		if cs := c.CacheStats(); cs.Hits+cs.Misses != 0 {
			t.Fatalf("%d-bit run: cache traffic %+v with an injector attached", bits, cs)
		}
		return or, and
	}
	geo := memarch.Default()
	if g := backend.SenseGroups(geo, 1<<14); g != backend.SenseGroups(geo, 1<<10) {
		t.Fatalf("widths need %d vs %d sense groups; the comparison needs equal command counts", g, backend.SenseGroups(geo, 1<<10))
	}
	smallOr, smallAnd := measure(1 << 10)
	bigOr, bigAnd := measure(1 << 14)
	t.Logf("bytes/call: intra OR %.0f -> %.0f, digital AND %.0f -> %.0f (1 Ki-bit -> 16 Ki-bit)",
		smallOr, bigOr, smallAnd, bigAnd)
	if d := bigOr - smallOr; d >= 64 || d <= -64 {
		t.Errorf("uncached intra OR allocates %.0f B/call at 16 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigOr, smallOr)
	}
	if d := bigAnd - smallAnd; d >= 64 || d <= -64 {
		t.Errorf("uncached digital AND allocates %.0f B/call at 16 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigAnd, smallAnd)
	}
}

// TestUncachedLoweringAllocs pins the lowering's allocations: with an
// injector attached (so the program cache is ineligible), lowering an
// n-row intra-subarray OR at 16 Ki-bit allocates nothing once the command
// arena has served one such lowering and is released between them, as a
// System releases it between operations. Its command slice is carved at
// its final length; classification, the LWL latches and the protocol
// check reuse controller- and backend-owned state. (Before the arena,
// every lowering allocated its command slice once.) Without releases each
// lowering allocates one block the size of the largest operation served,
// here its own, so a controller nobody releases keeps no more than that.
func TestUncachedLoweringAllocs(t *testing.T) {
	const bits = 1 << 14
	for _, n := range []int{2, 8, 26, 64, 127} {
		c := newCtl(t, nvm.PCM)
		attachInjector(t, c, fault.Config{Seed: 3, SenseFlipRate: 1e-4})
		srcs := addrsInSubarray(n + 1)
		dst := srcs[n]
		srcs = srcs[:n]
		var p progEntry
		lower := func() {
			var err error
			if p, err = c.lower(sense.OpOR, srcs, nil, bits, &dst, false, false); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { c.ReleaseCommands(); lower() }); allocs != 0 {
			t.Errorf("%d-row OR: lowering allocated %v times, want 0", n, allocs)
		}
		if len(p.commands) != cap(p.commands) {
			t.Errorf("%d-row OR: %d commands in a slice of capacity %d, want it carved at its final length",
				n, len(p.commands), cap(p.commands))
		}
		if allocs := testing.AllocsPerRun(20, lower); allocs != 1 {
			t.Errorf("%d-row OR without releases: lowering allocated %v times, want 1", n, allocs)
		}
		if cap(c.cmds) != len(p.commands) {
			t.Errorf("%d-row OR without releases: the arena holds a block of %d commands, want %d",
				n, cap(c.cmds), len(p.commands))
		}
	}
}

// TestLoweringAtFinalLength checks that every lowering's command slice
// is sized at its final length — the backend's IntraLen and the
// controller's body and write-back counts agree with what they emit —
// on both backends, for every op, placement, digital flag and write-back
// route, whether it is carved from the arena or kept by the cache.
func TestLoweringAtFinalLength(t *testing.T) {
	row := func(bank, sub, r int) memarch.RowAddr { return memarch.RowAddr{Bank: bank, Subarray: sub, Row: r} }
	placements := map[string][]memarch.RowAddr{
		"intra":      {row(1, 2, 0), row(1, 2, 1), row(1, 2, 2), row(1, 2, 3)},
		"inter-sub":  {row(1, 2, 0), row(1, 3, 0), row(1, 4, 0), row(1, 5, 0)},
		"inter-bank": {row(1, 2, 0), row(2, 2, 0), row(3, 2, 0), row(4, 2, 0)},
	}
	dsts := map[string]*memarch.RowAddr{
		"host": nil, "in place": {Bank: 1, Subarray: 2, Row: 900},
		"same bank": {Bank: 1, Subarray: 9, Row: 900}, "other bank": {Bank: 6, Subarray: 0, Row: 900},
	}
	ops := map[sense.Op]int{sense.OpRead: 1, sense.OpINV: 1, sense.OpAND: 2, sense.OpXOR: 2, sense.OpOR: 4}
	for _, tech := range []nvm.Tech{nvm.PCM, nvm.DRAM} {
		c := newCtl(t, tech)
		lowered := 0
		for pname, srcs := range placements {
			for op, n := range ops {
				for dname, dst := range dsts {
					for _, digital := range []bool{false, true} {
						for _, bits := range []int{64, 1 << 16} {
							for _, keep := range []bool{false, true} {
								p, err := c.lower(op, srcs[:n], nil, bits, dst, digital, keep)
								if err != nil {
									continue // an operand count this backend or path refuses
								}
								lowered++
								if len(p.commands) != cap(p.commands) {
									t.Errorf("%v %v %s, %d bits, into %s, digital %v, keep %v: %d commands in a slice of capacity %d",
										tech, op, pname, bits, dname, digital, keep, len(p.commands), cap(p.commands))
								}
							}
						}
					}
				}
			}
		}
		if lowered == 0 {
			t.Fatalf("%v: nothing lowered", tech)
		}
	}
	// A voted request lowers one operand set per replica into one slice.
	sets := [][]memarch.RowAddr{{row(1, 2, 0), row(1, 2, 1)}, {row(1, 2, 2), row(1, 2, 3)}, {row(1, 2, 4), row(1, 2, 5)}}
	res, err := newCtl(t, nvm.PCM).ExecuteVoted(sense.OpOR, sets, 1<<16, dsts["in place"])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != cap(res.Commands) {
		t.Errorf("voted OR: %d commands in a slice of capacity %d", len(res.Commands), cap(res.Commands))
	}
}

// TestDigitalSensingKeepsOneRow pins that the digital path under an
// injector keeps one sensing row, not one per operand: after a
// 128-operand ExecuteDigital OR at 2^16 bits, the controller's sensing
// scratch holds at most one row's words, and the folded result is the OR
// of the operands (at this rate a read-margin flip never fires).
func TestDigitalSensingKeepsOneRow(t *testing.T) {
	const bits = 1 << 16
	c := newCtl(t, nvm.PCM)
	attachInjector(t, c, fault.Config{Seed: 3, SenseFlipRate: 1e-12})
	srcs := addrsInSubarray(129)
	rng := rand.New(rand.NewSource(5))
	want := make([]uint64, bits/64)
	for _, a := range srcs[:128] {
		words := make([]uint64, bits/64)
		for i := range words {
			words[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
			want[i] |= words[i]
		}
		if err := c.Memory().WriteRow(a, words); err != nil {
			t.Fatal(err)
		}
	}
	dst := srcs[128]
	r, err := c.ExecuteDigital(sense.OpOR, srcs[:128], bits, &dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if r.Words[i] != want[i] {
			t.Fatalf("word %d: %x, want %x", i, r.Words[i], want[i])
		}
	}
	held := 0
	for _, b := range c.senseBufs[:cap(c.senseBufs)] {
		held += cap(b)
	}
	if held > bits/64 {
		t.Errorf("sensing scratch holds %d words after a 128-operand digital OR, want at most one %d-word row", held, bits/64)
	}
}
