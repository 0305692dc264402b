package pinatubo

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// twoSys builds two identically configured systems for differential runs.
func twoSys(t *testing.T, cfg Config) (*System, *System) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// driveRepeated runs a write + repeated op workload (the shape the program
// cache exists for) and returns the final read-back of every destination.
func driveRepeated(t *testing.T, s *System) [][]uint64 {
	t.Helper()
	const bits = 4096
	vs, err := s.AllocGroup(6, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	data := make([]uint64, bits/64)
	for _, v := range vs[:4] {
		for i := range data {
			data[i] = rng.Uint64()
		}
		if _, err := s.Write(v, data); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 8; round++ {
		if _, err := s.And(vs[4], vs[0], vs[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Xor(vs[5], vs[2], vs[3]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Or(vs[4], vs[0], vs[1], vs[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Not(vs[5], vs[4]); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]uint64, 2)
	for i, v := range []*BitVector{vs[4], vs[5]} {
		words, _, err := s.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = words
	}
	return out
}

// TestProgramCacheBitIdentical pins the cache's core contract: a cached
// run is bit-identical to an uncached one — same result vectors, same
// ledger, same hardware counters — the cache only skips re-lowering.
func TestProgramCacheBitIdentical(t *testing.T) {
	cached := newSys(t)
	plain := newSys(t)
	plain.ctl.SetProgramCache(false)

	a := driveRepeated(t, cached)
	b := driveRepeated(t, plain)
	if !reflect.DeepEqual(a, b) {
		t.Error("cached and uncached runs read back different words")
	}
	if sa, sb := cached.Stats(), plain.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Errorf("cached stats %+v != uncached %+v", sa, sb)
	}
	if ha, hb := cached.HardwareCounters(), plain.HardwareCounters(); !reflect.DeepEqual(ha, hb) {
		t.Errorf("cached hardware counters %+v != uncached %+v", ha, hb)
	}

	pc := cached.PerfStats()
	if pc.ProgramCacheHits == 0 || pc.ProgramCacheMisses == 0 || pc.ProgramCacheEntries == 0 {
		t.Errorf("repeated workload produced no cache traffic: %+v", pc)
	}
	if pp := plain.PerfStats(); pp.ProgramCacheHits != 0 || pp.ProgramCacheMisses != 0 {
		t.Errorf("a disabled cache still produced cache traffic: %+v", pp)
	}
}

// TestProgramCacheInvalidatedOnLayoutChange pins the invalidation rule:
// any row-layout mutation (Free, and through the same path remaps and
// replica teardowns) drops every cached program, so a stale program can
// never be served against a moved layout — and the rows freed and handed
// back out still compute correctly afterwards.
func TestProgramCacheInvalidatedOnLayoutChange(t *testing.T) {
	s := newSys(t)
	vs, err := s.AllocGroup(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(vs[0], []uint64{7, 7, 7, 7, 7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(vs[1], []uint64{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.And(vs[2], vs[0], vs[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.PerfStats().ProgramCacheEntries; n == 0 {
		t.Fatal("warm-up left no cached programs")
	}
	if err := s.Free(vs[2]); err != nil {
		t.Fatal(err)
	}
	if n := s.PerfStats().ProgramCacheEntries; n != 0 {
		t.Errorf("%d cached programs survived a Free", n)
	}

	// The freed row is handed back out; the op over the recycled layout
	// must compute fresh, not replay a stale program.
	nv, err := s.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Xor(nv, vs[0], vs[1]); err != nil {
		t.Fatal(err)
	}
	words, _, err := s.Read(nv)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if w != 7^9 {
			t.Fatalf("word %d after layout change: %#x want %#x", i, w, 7^9)
		}
	}
}

// TestSandboxPoolReuseBitIdentical runs the same multi-shard batch twice
// — the second window's sandboxes come from the pool — against a twin
// executing sequentially: results and ledgers must stay indistinguishable
// from fresh-sandbox execution, and the pool must actually report reuse.
func TestSandboxPoolReuseBitIdentical(t *testing.T) {
	cfg := Config{Tech: PCM, Geometry: spreadGeometry()}
	sys, twin := twoSys(t, cfg)
	ops := buildBatchOps(t, sys, 4096)
	twinOps := buildBatchOps(t, twin, 4096)

	for round := 0; round < 2; round++ {
		if _, err := sys.Batch(ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range twinOps {
			if _, err := twin.Apply(op.Op, op.Dst, op.Srcs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range ops {
		got, _, err := sys.Read(ops[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := twin.Read(twinOps[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %d: pooled-batch result differs from sequential twin", i)
		}
	}
	a, b := sys.Stats(), twin.Stats()
	if !reflect.DeepEqual(a.Ops, b.Ops) || a.Requests != b.Requests {
		t.Errorf("pooled-batch ledger %+v != sequential %+v", a, b)
	}

	p := sys.PerfStats()
	if p.SandboxPoolGets == 0 {
		t.Error("batched run never took a sandbox")
	}
	if p.SandboxPoolReuses == 0 {
		t.Errorf("second window reused no pooled sandbox: %+v", p)
	}
}

// bytesPerCall reports the heap bytes one call of f allocates, averaged
// over runs calls after two warm-up calls: the first lowers the program
// (a cache miss), the second grows the controller's hit buffer.
func bytesPerCall(f func(), runs int) float64 {
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

// TestApplyOnePathAllocs pins the per-call allocation count of every Op
// on a warm cached system with verification off. Every in-memory op runs
// through the one scheduler entry, which must add no allocation of its
// own, so each costs exactly the controller's heap Result; popcount pays
// for its per-row reads instead. (Before the scheduler took over every op
// the counts were OR 7, AND/XOR/NOT/Copy 2 and popcount 4.) The same
// holds for applyRound's repeated-op round on the default config and on
// DRAM, which must also run without a program-cache miss once warm.
func TestApplyOnePathAllocs(t *testing.T) {
	const bits = 1 << 16
	cfg := DefaultConfig()
	cfg.Resilience.Verify = VerifyOff
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.AllocGroup(5, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]uint64, bits/64)
	for _, v := range vs[1:] {
		for i := range data {
			data[i] = rng.Uint64()
		}
		if _, err := s.Write(v, data); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		op   Op
		srcs []*BitVector
		max  float64
	}{
		{OpOr, vs[1:], 1},
		{OpAnd, vs[1:3], 1},
		{OpXor, vs[1:3], 1},
		{OpNot, vs[1:2], 1},
		{OpCopy, vs[1:2], 1},
		{OpPopcount, nil, 3},
	}
	for _, c := range cases {
		call := func() {
			if _, err := s.Apply(c.op, vs[0], c.srcs); err != nil {
				t.Fatal(err)
			}
		}
		call() // lower: a cache miss
		call() // grow the controller's hit buffer
		got := testing.AllocsPerRun(100, call)
		t.Logf("%v: %.1f allocs/call", c.op, got)
		if got > c.max {
			t.Errorf("%v allocates %.1f per call, want at most %.0f", c.op, got, c.max)
		}
	}
	if p := s.PerfStats(); p.ProgramCacheHits == 0 {
		t.Errorf("no cache hits: %+v", p)
	}

	// The repeated-op round, verification at its default: after one
	// lowering round every lookup hits the program cache and each op costs
	// the controller's one heap Result. DRAM chains the 3-source OR as two
	// pairwise activations, one more hit and one more Result.
	for _, rc := range []struct {
		cfg Config
		max float64
	}{{DefaultConfig(), 3}, {Config{Tech: DRAM}, 4}} {
		s, round := applyRound(t, rc.cfg)
		round()
		warm := s.PerfStats()
		got := testing.AllocsPerRun(100, func() { round() })
		t.Logf("%v round: %.1f allocs", rc.cfg.Tech, got)
		if got > rc.max {
			t.Errorf("%v round allocates %.1f, want at most %.0f", rc.cfg.Tech, got, rc.max)
		}
		p := s.PerfStats()
		if p.ProgramCacheMisses != warm.ProgramCacheMisses || p.ProgramCacheHits == warm.ProgramCacheHits {
			t.Errorf("%v warm rounds: %d misses, %d hits; want 0 misses",
				rc.cfg.Tech, p.ProgramCacheMisses-warm.ProgramCacheMisses, p.ProgramCacheHits-warm.ProgramCacheHits)
		}
	}
}

// applyRound builds six full-row vectors on a fresh system, writes seed-42
// data to the first four, and returns a round of three ops over them: an
// AND and an XOR of two and an OR of three, reporting their Results.
func applyRound(t *testing.T, cfg Config) (*System, func() [3]Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.AllocGroup(6, s.RowBits())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, v := range vs[:4] {
		seedVector(t, s, rng, v, s.RowBits())
	}
	return s, func() [3]Result {
		var rs [3]Result
		var errs [3]error
		rs[0], errs[0] = s.And(vs[4], vs[0], vs[1])
		rs[1], errs[1] = s.Xor(vs[5], vs[2], vs[3])
		rs[2], errs[2] = s.Or(vs[4], vs[0], vs[1], vs[2])
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return rs
	}
}

// TestCachedApplyRowSizedZeroAllocs pins that a warm cache hit allocates
// nothing row-sized: a 26-row OR over resident vectors and a popcount,
// both with verification off, cost the same heap bytes per call at
// 1 Ki-bit and 64 Ki-bit vectors. A result buffer allocated per hit would
// show up as the 8 KiB difference in row size.
func TestCachedApplyRowSizedZeroAllocs(t *testing.T) {
	const runs = 200
	measure := func(bits int) (or, pop float64) {
		cfg := DefaultConfig()
		cfg.Resilience.Verify = VerifyOff
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.AllocGroup(27, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		data := make([]uint64, bits/64)
		for _, v := range vs[1:] {
			for i := range data {
				data[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			if _, err := s.Write(v, data); err != nil {
				t.Fatal(err)
			}
		}
		dst, srcs := vs[0], vs[1:]
		or = bytesPerCall(func() {
			if _, err := s.Apply(OpOr, dst, srcs); err != nil {
				t.Fatal(err)
			}
		}, runs)
		pop = bytesPerCall(func() {
			if _, err := s.Apply(OpPopcount, dst, nil); err != nil {
				t.Fatal(err)
			}
		}, runs)
		if p := s.PerfStats(); p.ProgramCacheHits < 2*runs {
			t.Fatalf("%d-bit run: %d cache hits, want every measured call to hit", bits, p.ProgramCacheHits)
		}
		return or, pop
	}
	smallOr, smallPop := measure(1 << 10)
	bigOr, bigPop := measure(1 << 16)
	t.Logf("bytes/call: OR %.0f -> %.0f, popcount %.0f -> %.0f (1 Ki-bit -> 64 Ki-bit)",
		smallOr, bigOr, smallPop, bigPop)
	if d := bigOr - smallOr; d >= 64 || d <= -64 {
		t.Errorf("cached OR allocates %.0f B/call at 64 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigOr, smallOr)
	}
	if d := bigPop - smallPop; d >= 64 || d <= -64 {
		t.Errorf("cached popcount allocates %.0f B/call at 64 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigPop, smallPop)
	}
}
