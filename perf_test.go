package pinatubo

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pinatubo/internal/cmdstream"
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
	plain.ctl.SetProgramCache(nil)

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

// TestProgramCacheRecycledRow frees a vector whose ops are cached and
// hands its row back out: ops over the recycled row must compute from the
// row's new contents, whether they lower afresh (the XOR) or are served
// by the entry the freed vector's AND left behind.
func TestProgramCacheRecycledRow(t *testing.T) {
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
	if err := s.Free(vs[2]); err != nil {
		t.Fatal(err)
	}

	// The freed row is handed back out.
	nv, err := s.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if nv.rows[0] != vs[2].rows[0] {
		t.Fatalf("Alloc after Free took row %v, want the freed row %v", nv.rows[0], vs[2].rows[0])
	}
	check := func(what string, want uint64) {
		t.Helper()
		words, _, err := s.Read(nv)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range words {
			if w != want {
				t.Fatalf("%s: word %d on the recycled row: %#x want %#x", what, i, w, want)
			}
		}
	}
	if _, err := s.Xor(nv, vs[0], vs[1]); err != nil {
		t.Fatal(err)
	}
	check("XOR", 7^9)
	hits := s.PerfStats().ProgramCacheHits
	if _, err := s.And(nv, vs[0], vs[1]); err != nil {
		t.Fatal(err)
	}
	if s.PerfStats().ProgramCacheHits == hits {
		t.Fatal("the AND over the recycled row lowered afresh; this check wants it served from the cache")
	}
	check("AND", 7&9)
}

// streamDistinctShapes runs the BFS-frontier cycle — alloc, two host
// writes, an XOR, a read, free — once for every vector length from 1 to
// n bits. Each length is a new key for all four lowerings, so the stream
// lowers 4n distinct programs. Every read must return the XOR.
func streamDistinctShapes(t *testing.T, s *System, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	for bits := 1; bits <= n; bits++ {
		var vs [3]*BitVector
		for i := range vs {
			v, err := s.Alloc(bits)
			if err != nil {
				t.Fatal(err)
			}
			vs[i] = v
		}
		w := (bits + 63) / 64
		x, y := make([]uint64, w), make([]uint64, w)
		for i := range x {
			x[i], y[i] = rng.Uint64(), rng.Uint64()
		}
		if _, err := s.Write(vs[0], x); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(vs[1], y); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Xor(vs[2], vs[0], vs[1]); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Read(vs[2])
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := x[i] ^ y[i]
			if tail := bits - 64*i; tail < 64 {
				want &= 1<<tail - 1
				got[i] &= 1<<tail - 1
			}
			if got[i] != want {
				t.Fatalf("%d-bit XOR: word %d = %#x, want %#x", bits, i, got[i], want)
			}
		}
		for _, v := range vs {
			if err := s.Free(v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestProgramCacheEvictsAtCap streams more distinct shapes through a
// System than its program cache holds: the cache must evict, stay within
// cmdstream.MaxEntries and keep returning the right words. The same
// stream on a shard sandbox runs in its System's cache, so the live
// System's PerfStats must read the first System's cache counters while
// the sandbox is still out of the pool.
func TestProgramCacheEvictsAtCap(t *testing.T) {
	n := cmdstream.MaxEntries/4 + 100
	s := newSys(t)
	streamDistinctShapes(t, s, n)
	p := s.PerfStats()
	if p.ProgramCacheEvictions < cmdstream.MaxEntries || p.ProgramCacheEntries > cmdstream.MaxEntries {
		t.Errorf("after %d distinct shapes: %d evictions, %d entries; want at least %d evictions and at most %d entries",
			4*n, p.ProgramCacheEvictions, p.ProgramCacheEntries, cmdstream.MaxEntries, cmdstream.MaxEntries)
	}

	live := newSys(t)
	sb, err := live.getSandbox()
	if err != nil {
		t.Fatal(err)
	}
	streamDistinctShapes(t, sb, n)
	got := live.PerfStats()
	got.SandboxPoolGets = 0
	if got != p {
		t.Errorf("after the stream ran on a sandbox the live System reports %+v; want %+v", got, p)
	}
	live.putSandbox(sb)
}

// fuzzGeometry is a small memory (two banks of two 16-row subarrays,
// 256-bit rows), so generated programs exhaust and recycle rows quickly
// and their ops land in every placement class.
func fuzzGeometry() Geometry {
	return Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     1,
		BanksPerChip:     2,
		SubarraysPerBank: 2,
		MatsPerSubarray:  1,
		RowsPerSubarray:  16,
		MatRowBits:       256,
		MuxRatio:         32,
	}
}

// fuzzHardware returns the configuration FuzzProgramCacheLayout runs:
// tech on fuzzGeometry, with the hardware that pick selects. On the resistive
// techs pick 1 injects sense flips, activation faults and wear under
// read-back verification, 2 sense flips under SECDED, and 3 sense flips
// under read-back with every row replicated three times; DRAM refuses an
// injector, so it stays ideal, as every tech does on pick 0.
func fuzzHardware(tech Tech, pick int) Config {
	cfg := Config{Tech: tech, Geometry: fuzzGeometry()}
	if tech == DRAM {
		return cfg
	}
	switch pick {
	case 1:
		cfg.Resilience.Verify = VerifyReadback
		cfg.Fault = FaultConfig{Seed: 11, SenseFlipRate: 1e-2, ActivationFailRate: 0.05, WearLimit: 6}
	case 2:
		cfg.Resilience.Verify = VerifyECC
		cfg.Fault = FaultConfig{Seed: 12, SenseFlipRate: 1e-2}
	case 3:
		cfg.Resilience = ResilienceConfig{Verify: VerifyReadback, Replicate: 3}
		cfg.Fault = FaultConfig{Seed: 13, SenseFlipRate: 1e-2}
	}
	return cfg
}

// FuzzProgramCacheLayout runs a generated alloc/write/apply/read/free
// program on a System with the lowered-program cache and on a twin with
// the cache off. The first byte picks the technology (its value mod 4,
// DRAM included) and the hardware (its value / 4 mod 4, fuzzHardware):
// ideal, faulty under read-back, SECDED or replicated (the churn-* seed
// files run one churn program on each). Frees recycle rows, so cached
// programs are served for rows that were freed and handed out again.
// After every step the two must agree on the rows allocated, every
// returned word, Result and error, the program the step lowered, MR4,
// Stats, HardwareCounters and FaultStats: a lowering draws no fault, so
// the twins draw the same ones.
func FuzzProgramCacheLayout(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 3, 0, 3, 2, 0, 1, 2, 1, 2, 3, 2, 2, 0, 1, 4, 2, 5, 2, 0, 3, 3, 2, 2, 0, 1, 4, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		techs := [...]Tech{PCM, STTMRAM, ReRAM, DRAM}
		first := int(prog[0])
		cached, plain := twoSys(t, fuzzHardware(techs[first%len(techs)], first/len(techs)%4))
		plain.ctl.SetProgramCache(nil)
		sizes := [...]int{1, 64, 200, 256, 257, 512, 700}
		ops := [...]Op{OpOr, OpAnd, OpXor, OpNot, OpCopy, OpPopcount}
		pos := 1
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		var vs [][2]*BitVector // each vector's handle on cached and plain
		pick := func() [2]*BitVector { return vs[next()%len(vs)] }
		same := func(step int, what string, a, b any) {
			t.Helper()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d %s: cached %+v, uncached %+v", step, what, a, b)
			}
		}
		sameErr := func(step int, ea, eb error) bool {
			t.Helper()
			if fmt.Sprint(ea) != fmt.Sprint(eb) {
				t.Fatalf("step %d: cached error %v, uncached %v", step, ea, eb)
			}
			return ea == nil
		}
		for step := 0; pos < len(prog) && step < 64; step++ {
			switch kind := next() % 6; {
			case kind == 0 || kind == 1:
				var va, vb []*BitVector
				var ea, eb error
				if kind == 0 {
					bits := sizes[next()%len(sizes)]
					var a, b *BitVector
					a, ea = cached.Alloc(bits)
					b, eb = plain.Alloc(bits)
					va, vb = []*BitVector{a}, []*BitVector{b}
				} else {
					count, bits := 2+next()%3, sizes[next()%4]
					va, ea = cached.AllocGroup(count, bits)
					vb, eb = plain.AllocGroup(count, bits)
				}
				if sameErr(step, ea, eb) {
					for i := range va {
						same(step, "allocated rows", va[i].rows, vb[i].rows)
						vs = append(vs, [2]*BitVector{va[i], vb[i]})
					}
				}
			case len(vs) == 0:
				continue
			case kind == 2:
				v := pick()
				rng := rand.New(rand.NewSource(int64(next())))
				data := make([]uint64, (v[0].Len()+63)/64)
				for i := range data {
					data[i] = rng.Uint64()
				}
				ra, ea := cached.Write(v[0], data)
				rb, eb := plain.Write(v[1], data)
				sameErr(step, ea, eb)
				same(step, "write result", ra, rb)
			case kind == 3:
				op := ops[next()%len(ops)]
				lo, hi := op.arity()
				if hi < 0 {
					hi = 4
				}
				n := lo + next()%(hi-lo+1)
				dst := pick()
				var sa, sb []*BitVector
				for i := 0; i < n; i++ {
					v := pick()
					sa, sb = append(sa, v[0]), append(sb, v[1])
				}
				ra, ea := cached.Apply(op, dst[0], sa)
				rb, eb := plain.Apply(op, dst[1], sb)
				sameErr(step, ea, eb)
				same(step, op.String()+" result", ra, rb)
			case kind == 4:
				v := pick()
				wa, ra, ea := cached.Read(v[0])
				wb, rb, eb := plain.Read(v[1])
				sameErr(step, ea, eb)
				same(step, "read words", wa, wb)
				same(step, "read result", ra, rb)
			default:
				i := next() % len(vs)
				if sameErr(step, cached.Free(vs[i][0]), plain.Free(vs[i][1])) {
					vs = append(vs[:i], vs[i+1:]...)
				}
			}
			same(step, "lowered program", cached.prog.Instrs, plain.prog.Instrs)
			same(step, "MR4", cached.ctl.ModeRegister(), plain.ctl.ModeRegister())
			same(step, "stats", cached.Stats(), plain.Stats())
			same(step, "hardware counters", cached.HardwareCounters(), plain.HardwareCounters())
			same(step, "fault stats", cached.FaultStats(), plain.FaultStats())
		}
	})
}

// TestSandboxPoolReuseBitIdentical runs the same multi-shard batch twice
// — the second window's sandboxes come from the pool — against a twin
// executing sequentially, on ideal hardware and under SECDED with sense
// flips: results and ledgers must stay indistinguishable from
// fresh-sandbox execution, and the pool must actually report reuse. The
// sandboxes share the System's program cache, so the second window is
// served from the lowerings the first stored, whichever sandbox runs
// which shard: it adds hits and no misses, and every miss is stored once,
// in the one cache (entries equal misses).
func TestSandboxPoolReuseBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ideal", Config{Tech: PCM, Geometry: spreadGeometry()}},
		{"ecc-flips", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 3, SenseFlipRate: 1e-3}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, twin := twoSys(t, c.cfg)
			ops := buildBatchOps(t, sys, 4096)
			twinOps := buildBatchOps(t, twin, 4096)

			var perf [2]PerfStats
			for round := 0; round < 2; round++ {
				if _, err := sys.Batch(ops); err != nil {
					t.Fatal(err)
				}
				perf[round] = sys.PerfStats()
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
			if a, b := sys.FaultStats(), twin.FaultStats(); a != b {
				t.Errorf("pooled-batch FaultStats %+v != sequential %+v", a, b)
			} else if c.cfg.Fault.SenseFlipRate > 0 && a.EccCorrectedBits == 0 {
				t.Errorf("no SECDED correction under sense flips: %+v", a)
			}

			p := perf[1]
			if p.SandboxPoolGets == 0 {
				t.Error("batched run never took a sandbox")
			}
			if p.SandboxPoolReuses == 0 {
				t.Errorf("second window reused no pooled sandbox: %+v", p)
			}
			if p.ProgramCacheMisses != perf[0].ProgramCacheMisses || p.ProgramCacheHits == perf[0].ProgramCacheHits {
				t.Errorf("second window: %d new misses, %d new hits; want none and some",
					p.ProgramCacheMisses-perf[0].ProgramCacheMisses, p.ProgramCacheHits-perf[0].ProgramCacheHits)
			}
			if int64(p.ProgramCacheEntries) != p.ProgramCacheMisses {
				t.Errorf("%d cached programs for %d misses; want each miss stored once", p.ProgramCacheEntries, p.ProgramCacheMisses)
			}
		})
	}
}

// bytesPerCall reports the heap bytes one call of f allocates, averaged
// over runs calls after two warm-up calls: the first lowers the program
// (a cache miss), the second grows the controller's hit buffer. Like
// testing.AllocsPerRun it measures on one P, so a goroutine another test
// left running cannot allocate during the measured calls.
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

// TestApplyOnePathAllocs pins the per-call allocation count of every Op
// on a warm cached system with verification off. Every in-memory op runs
// through the one scheduler entry, which must add no allocation of its
// own, and the controller returns its Result by value, so each allocates
// nothing; popcount allocates only the count its Result points to.
// (Before the scheduler took over every op the counts were OR 7,
// AND/XOR/NOT/Copy 2 and popcount 4, and before results were values 1
// each and popcount 3.) The same holds for applyRound's repeated-op round
// on the default config and on DRAM (3 and 4 allocations while results
// were on the heap), which must also run without a program-cache miss
// once warm.
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
		{OpOr, vs[1:], 0},
		{OpAnd, vs[1:3], 0},
		{OpXor, vs[1:3], 0},
		{OpNot, vs[1:2], 0},
		{OpCopy, vs[1:2], 0},
		{OpPopcount, nil, 1},
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
	// lowering round every lookup hits the program cache and no op
	// allocates. DRAM chains the 3-source OR as two pairwise activations,
	// one more hit.
	for _, rc := range []struct {
		cfg Config
		max float64
	}{{DefaultConfig(), 0}, {Config{Tech: DRAM}, 0}} {
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

// TestVerifiedApplyRowSizedZeroAllocs pins that read-back verification
// allocates nothing row-sized: with no faults injected (so the program
// cache still serves every request), a 26-row OR over resident vectors
// and a popcount, both verified, cost the same heap bytes per call at
// 1 Ki-bit and 16 Ki-bit vectors, two widths that take the same number
// of sense groups. The OR's reference lands in a buffer the scheduler
// owns, and the popcount's verified read compares against the stored row
// in place; a reference allocated per request or per read would show up
// as the 1.9 KiB difference in row size.
func TestVerifiedApplyRowSizedZeroAllocs(t *testing.T) {
	const runs = 200
	measure := func(bits int) (or, pop float64) {
		cfg := DefaultConfig()
		cfg.Resilience.Verify = VerifyReadback
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
		f := s.FaultStats()
		if f.Verifies < 2*runs {
			t.Fatalf("%d-bit run: %d verifies, want every measured call verified", bits, f.Verifies)
		}
		if p := s.PerfStats(); p.ProgramCacheHits < 2*runs {
			t.Fatalf("%d-bit run: %d cache hits, want every measured call to hit", bits, p.ProgramCacheHits)
		}
		return or, pop
	}
	smallOr, smallPop := measure(1 << 10)
	bigOr, bigPop := measure(1 << 14)
	t.Logf("bytes/call: OR %.0f -> %.0f, popcount %.0f -> %.0f (1 Ki-bit -> 16 Ki-bit)",
		smallOr, bigOr, smallPop, bigPop)
	if d := bigOr - smallOr; d >= 64 || d <= -64 {
		t.Errorf("verified OR allocates %.0f B/call at 16 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigOr, smallOr)
	}
	if d := bigPop - smallPop; d >= 64 || d <= -64 {
		t.Errorf("verified popcount allocates %.0f B/call at 16 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", bigPop, smallPop)
	}
}

// TestVerifiedWriteRowSizedZeroAllocs pins that a verified host write
// allocates nothing row-sized: with no faults injected, a warm one-row
// Write under read-back verification costs the same heap bytes per call
// at 1 Ki-bit and 16 Ki-bit vectors. The write's reference is its own
// data, copied into a buffer the scheduler owns; a reference allocated
// per row would show up as the 1.9 KiB difference in row size.
func TestVerifiedWriteRowSizedZeroAllocs(t *testing.T) {
	const runs = 200
	measure := func(bits int) float64 {
		cfg := DefaultConfig()
		cfg.Resilience.Verify = VerifyReadback
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		data := make([]uint64, bits/64)
		for i := range data {
			data[i] = rng.Uint64()
		}
		b := bytesPerCall(func() {
			if _, err := s.Write(v, data); err != nil {
				t.Fatal(err)
			}
		}, runs)
		if f := s.FaultStats(); f.Verifies < runs {
			t.Fatalf("%d-bit run: %d verifies, want every measured write verified", bits, f.Verifies)
		}
		return b
	}
	small, big := measure(1<<10), measure(1<<14)
	t.Logf("bytes/call: %.0f -> %.0f (1 Ki-bit -> 16 Ki-bit)", small, big)
	if d := big - small; d >= 64 || d <= -64 {
		t.Errorf("verified Write allocates %.0f B/call at 16 Ki-bit vs %.0f at 1 Ki-bit: a row-sized allocation", big, small)
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

// TestECCApplyAllocatesOnlyCheckWords pins that a warm Apply under
// SECDED allocates only the check words it stores: one slice per
// destination row, which the row's record keeps (they are never modified,
// so a window's sandbox can share them). On scheduleGeometry a
// 10,000-bit vector has three rows, whose 4,096, 4,096 and 1,808 bits
// take 8, 8 and 4 check words: three allocations of 160 bytes in all for
// every op but popcount, which stores none and allocates only its count
// (8 bytes, 16 under the race detector). The program cache serves a
// SECDED System as it does ideal hardware, so the warm requests must
// hit. (Before the lowering arena and results by value, each op
// allocated 12 times and about 7 KB; the pins held unchanged while the
// cache was off under SECDED and every request lowered afresh.)
func TestECCApplyAllocatesOnlyCheckWords(t *testing.T) {
	const bits = 10000
	s, err := New(Config{Tech: PCM, Geometry: scheduleGeometry(),
		Resilience: ResilienceConfig{Verify: VerifyECC}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vs := make([]*BitVector, 4)
	for i := range vs {
		if vs[i], err = s.Alloc(bits); err != nil {
			t.Fatal(err)
		}
		seedVector(t, s, rng, vs[i], bits)
	}
	cases := []struct {
		op               Op
		srcs             []*BitVector
		allocs, maxBytes float64
	}{
		{OpOr, vs[1:], 3, 160},
		{OpAnd, vs[1:3], 3, 160},
		{OpXor, vs[1:3], 3, 160},
		{OpNot, vs[1:2], 3, 160},
		{OpCopy, vs[1:2], 3, 160},
		{OpPopcount, nil, 1, 16},
	}
	for _, c := range cases {
		call := func() {
			if _, err := s.Apply(c.op, vs[0], c.srcs); err != nil {
				t.Fatal(err)
			}
		}
		call()
		allocs := testing.AllocsPerRun(100, call)
		bytes := bytesPerCall(call, 100)
		t.Logf("%v: %.1f allocs, %.0f B per call", c.op, allocs, bytes)
		if allocs != c.allocs || bytes > c.maxBytes {
			t.Errorf("%v allocates %.1f times, %.0f B per call; want %.0f times, at most %.0f B",
				c.op, allocs, bytes, c.allocs, c.maxBytes)
		}
	}
	if p := s.PerfStats(); p.ProgramCacheHits == 0 {
		t.Errorf("the program cache did not serve a SECDED system: %+v", p)
	}
}

// TestReplicatedApplyAllocs pins that a warm replicated Apply allocates
// what an unreplicated one does: with Replicate 3 on a 4,096-bit vector,
// every voted AND, OR, XOR and NOT allocates nothing under read-back
// verification, and under SECDED only the destination's 8 check words (64
// bytes). A voted request lowers and replays through the controller's one
// execute path into its result buffer, and the scheduler builds the
// replica operand sets and refresh copies in buffers it owns. (When voting
// was a pipeline of its own, each op allocated 13 times and 2,016 B under
// read-back, 14 times and 2,080 B under SECDED.)
func TestReplicatedApplyAllocs(t *testing.T) {
	const bits = 4096
	for _, c := range []struct {
		name             string
		verify           VerifyMode
		allocs, maxBytes float64
	}{{"readback", VerifyReadback, 0, 0}, {"ecc", VerifyECC, 1, 64}} {
		s, err := New(Config{Tech: PCM, Geometry: DefaultGeometry(),
			Resilience: ResilienceConfig{Verify: c.verify, Replicate: 3}})
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.AllocGroup(5, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for _, v := range vs[1:] {
			seedVector(t, s, rng, v, bits)
		}
		for _, op := range []struct {
			op   Op
			srcs []*BitVector
		}{{OpAnd, vs[1:3]}, {OpOr, vs[1:]}, {OpXor, vs[1:3]}, {OpNot, vs[1:2]}} {
			votes := s.FaultStats().Votes
			call := func() {
				if _, err := s.Apply(op.op, vs[0], op.srcs); err != nil {
					t.Fatal(err)
				}
			}
			call()
			if s.FaultStats().Votes == votes {
				t.Fatalf("%s %v: the op was not voted", c.name, op.op)
			}
			allocs := testing.AllocsPerRun(100, call)
			bytes := bytesPerCall(call, 100)
			t.Logf("%s %v: %.1f allocs, %.0f B per call", c.name, op.op, allocs, bytes)
			if allocs != c.allocs || bytes > c.maxBytes {
				t.Errorf("%s %v allocates %.1f times, %.0f B per call; want %.0f times, at most %.0f B",
					c.name, op.op, allocs, bytes, c.allocs, c.maxBytes)
			}
		}
	}
}

// TestWindowBookkeepingAllocs pins the host-side allocations of a warm
// batch window: buildBatchOps' six ops on spreadGeometry, each in its own
// bank, admitted with Add, started and waited. Once the builder's key
// buffer and partition, the pooled sandboxes' destination-row copies,
// request buffers and command arenas and the merge buffer have held one
// window, the next allocates only what it hands out or cannot reuse: the
// run and its per-window slices, the worker goroutines, the popcount's
// count and, under SECDED, the check words each op stores. The pins are
// the measured 15 and 20 allocations plus a margin of two. (Before the
// bookkeeping was reused a window cost 152 allocations, 181 under
// VerifyECC; before the lowerings, requests and results stopped
// allocating, 31 and 48; while shards ran on mirror vectors, whose
// operand buffer each fresh worker grew, 18 and 23.)
func TestWindowBookkeepingAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		verify VerifyMode
		max    float64
	}{{"verify-off", VerifyOff, 17}, {"ecc", VerifyECC, 22}} {
		s, err := New(Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: c.verify}})
		if err != nil {
			t.Fatal(err)
		}
		ops := buildBatchOps(t, s, 4096)
		b := s.NewBatchBuilder()
		window := func() {
			for _, op := range ops {
				if err := b.Add(op); err != nil {
					t.Fatal(err)
				}
			}
			run, err := b.Start()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		window()
		window()
		got := testing.AllocsPerRun(50, window)
		t.Logf("%s: %.1f allocs per window", c.name, got)
		if got > c.max {
			t.Errorf("%s: a warm window allocates %.1f times, want at most %.0f", c.name, got, c.max)
		}
	}
}
