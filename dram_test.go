package pinatubo

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The DRAM backend computes AND/OR through triple-row activation and NOT
// through a dual-contact cell, nothing like the modified-sense-amplifier
// path the NVM technologies use — yet both lower through the same
// cmdstream IR and the same controller. These tests pin the only contract
// that makes the backend seam safe: for every public operation the DRAM
// backend is bit-identical to the sequential NVM path in memory contents,
// and bit-identical to its own sequential path in every Result field,
// ledger and hardware counter when ops run through Batch.
//
// All test names carry the TestDRAM prefix so CI can run exactly this
// suite under the race detector: go test -race -run TestDRAM .

// seedVector fills v with words drawn from rng and writes them to s.
func seedVector(t *testing.T, s *System, rng *rand.Rand, v *BitVector, bits int) []uint64 {
	t.Helper()
	data := make([]uint64, (bits+63)/64)
	for i := range data {
		data[i] = rng.Uint64()
	}
	if _, err := s.Write(v, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDRAMMatchesNVMApply runs every public operation on a DRAM system and
// a PCM twin seeded with identical data and requires raw memory contents
// to match word for word — including tail-word bits beyond the vector
// length, which Write stores and Read returns unmasked on both paths.
// Where the host can compute the answer cheaply (whole-word vectors) the
// result is also checked against host arithmetic, so the two systems
// cannot agree by being wrong the same way.
func TestDRAMMatchesNVMApply(t *testing.T) {
	type opCase struct {
		name   string
		nsrc   int
		run    func(s *System, dst *BitVector, srcs []*BitVector) error
		golden func(srcs [][]uint64) []uint64
	}
	word := func(f func(ws []uint64) uint64) func(srcs [][]uint64) []uint64 {
		return func(srcs [][]uint64) []uint64 {
			out := make([]uint64, len(srcs[0]))
			ws := make([]uint64, len(srcs))
			for i := range out {
				for j := range srcs {
					ws[j] = srcs[j][i]
				}
				out[i] = f(ws)
			}
			return out
		}
	}
	cases := []opCase{
		{"and", 2, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.And(d, v[0], v[1])
			return err
		}, word(func(ws []uint64) uint64 { return ws[0] & ws[1] })},
		{"or2", 2, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.Or(d, v...)
			return err
		}, word(func(ws []uint64) uint64 { return ws[0] | ws[1] })},
		// Six operands: far past DRAM's pairwise TRA depth, so the
		// controller chains through the scratch row; PCM does it in one
		// multi-row activation. Same answer required.
		{"or6", 6, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.Or(d, v...)
			return err
		}, word(func(ws []uint64) uint64 {
			var acc uint64
			for _, w := range ws {
				acc |= w
			}
			return acc
		})},
		{"xor", 2, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.Xor(d, v[0], v[1])
			return err
		}, word(func(ws []uint64) uint64 { return ws[0] ^ ws[1] })},
		{"not", 1, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.Not(d, v[0])
			return err
		}, word(func(ws []uint64) uint64 { return ^ws[0] })},
		{"copy", 1, func(s *System, d *BitVector, v []*BitVector) error {
			_, err := s.Copy(d, v[0])
			return err
		}, word(func(ws []uint64) uint64 { return ws[0] })},
	}
	sizes := []struct {
		name string
		bits func(s *System) int
	}{
		{"one-row", func(*System) int { return 4096 }},
		// Ragged: not a word multiple, so the last word carries stored
		// tail bits; golden comparison is skipped, raw-word equality
		// between the two technologies is still required.
		{"ragged", func(*System) int { return 1000 }},
		// Spans subarrays: exercises per-row-group lowering on both.
		{"two-rows", func(s *System) int { return s.RowBits() + 64 }},
	}
	for _, sz := range sizes {
		t.Run(sz.name, func(t *testing.T) {
			dram, err := New(Config{Tech: DRAM, Geometry: spreadGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			pcm, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			bits := sz.bits(dram)
			wholeWords := bits%64 == 0
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					run := func(s *System, seed int64) (dstW []uint64, srcW [][]uint64, golden [][]uint64) {
						var g []*BitVector
						if bits <= s.RowBits() {
							var err error
							g, err = s.AllocGroup(tc.nsrc+1, bits)
							if err != nil {
								t.Fatal(err)
							}
						} else {
							// Multi-row vectors: Alloc only (groups are
							// single-row); the op runs chunk by chunk.
							for i := 0; i < tc.nsrc+1; i++ {
								v, err := s.Alloc(bits)
								if err != nil {
									t.Fatal(err)
								}
								g = append(g, v)
							}
						}
						rng := rand.New(rand.NewSource(seed))
						for _, v := range g {
							golden = append(golden, seedVector(t, s, rng, v, bits))
						}
						if err := tc.run(s, g[tc.nsrc], g[:tc.nsrc]); err != nil {
							t.Fatal(err)
						}
						for _, v := range g[:tc.nsrc] {
							w, _, err := s.Read(v)
							if err != nil {
								t.Fatal(err)
							}
							srcW = append(srcW, w)
						}
						dstW, _, err = s.Read(g[tc.nsrc])
						if err != nil {
							t.Fatal(err)
						}
						return dstW, srcW, golden
					}
					dDst, dSrc, seeds := run(dram, 42)
					pDst, pSrc, _ := run(pcm, 42)
					if !reflect.DeepEqual(dDst, pDst) {
						t.Errorf("destination diverges: DRAM %x, PCM %x", dDst, pDst)
					}
					for i := range dSrc {
						if !reflect.DeepEqual(dSrc[i], pSrc[i]) {
							t.Errorf("source %d corrupted differently across technologies", i)
						}
						if wholeWords && !reflect.DeepEqual(dSrc[i], seeds[i]) {
							t.Errorf("source %d modified by a read-only operand", i)
						}
					}
					if wholeWords {
						if want := tc.golden(seeds[:tc.nsrc]); !reflect.DeepEqual(dDst, want) {
							t.Errorf("DRAM result %x != host golden %x", dDst, want)
						}
					}
				})
			}
			// Popcount: counts, not contents.
			t.Run("popcount", func(t *testing.T) {
				count := func(s *System) (int, []uint64) {
					v, err := s.Alloc(bits)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(13))
					data := seedVector(t, s, rng, v, bits)
					n, _, err := s.Popcount(v)
					if err != nil {
						t.Fatal(err)
					}
					return n, data
				}
				dn, _ := count(dram)
				pn, _ := count(pcm)
				if dn != pn {
					t.Errorf("popcount diverges: DRAM %d, PCM %d", dn, pn)
				}
			})
		})
	}
}

// TestDRAMBatchDifferential is the DRAM instance of the batch-executor
// contract: Batch of N ops on a DRAM system and N sequential Apply calls
// on an identically seeded DRAM twin must produce bit-identical per-op
// Results, memory contents, statistics ledgers and hardware counters —
// under both arbiters, and with the ops sharded across goroutines (the
// race detector sees this test in CI).
func TestDRAMBatchDifferential(t *testing.T) {
	for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
		t.Run(arb.String(), func(t *testing.T) {
			cfg := Config{Tech: DRAM, Geometry: spreadGeometry()}
			batched, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const bits = 4096
			opsA := buildBatchOps(t, batched, bits)
			opsB := buildBatchOps(t, serial, bits)

			want := make([]Result, len(opsB))
			for i, op := range opsB {
				res, err := serial.Apply(op.Op, op.Dst, op.Srcs)
				if err != nil {
					t.Fatalf("sequential op %d (%v): %v", i, op.Op, err)
				}
				want[i] = res
			}
			br, err := batched.Batch(opsA, WithArbiter(arb))
			if err != nil {
				t.Fatal(err)
			}
			for i := range opsA {
				if !reflect.DeepEqual(br.Results[i], want[i]) {
					t.Errorf("op %d (%v): batch result %+v != sequential %+v",
						i, opsA[i].Op, br.Results[i], want[i])
				}
			}
			if br.Shards != len(opsA) {
				t.Errorf("Shards=%d, want %d (bank-disjoint ops)", br.Shards, len(opsA))
			}
			if a, b := batched.Stats(), serial.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge: batch %+v, sequential %+v", a, b)
			}
			if a, b := batched.HardwareCounters(), serial.HardwareCounters(); !reflect.DeepEqual(a, b) {
				t.Errorf("HardwareCounters diverge: batch %+v, sequential %+v", a, b)
			}
			for i := range opsA {
				vecsA := append([]*BitVector{opsA[i].Dst}, opsA[i].Srcs...)
				vecsB := append([]*BitVector{opsB[i].Dst}, opsB[i].Srcs...)
				for j := range vecsA {
					wa, _, err := batched.Read(vecsA[j])
					if err != nil {
						t.Fatal(err)
					}
					wb, _, err := serial.Read(vecsB[j])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wa, wb) {
						t.Errorf("op %d (%v) vector %d: batch contents diverge from sequential",
							i, opsA[i].Op, j)
					}
				}
			}
		})
	}
}

// TestDRAMCachedBitIdentical pins the lowered-program cache on the DRAM
// backend: a cached second run of the same op template must report the
// exact Result of the uncached first run on a twin system (the cache
// replays priced commands and recomputes words through the backend's
// ComputeInto, so nothing may drift).
func TestDRAMCachedBitIdentical(t *testing.T) {
	cached, err := New(Config{Tech: DRAM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(Config{Tech: DRAM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	uncached.ctl.SetProgramCache(nil)
	const bits = 4096
	run := func(s *System) ([]Result, [][]uint64) {
		var results []Result
		var contents [][]uint64
		for round := 0; round < 3; round++ {
			g, err := s.AllocGroup(3, bits)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100 + round)))
			for _, v := range g {
				seedVector(t, s, rng, v, bits)
			}
			for _, op := range []Op{OpAnd, OpOr, OpXor, OpNot} {
				srcs := g[:2]
				if op == OpNot {
					srcs = g[:1]
				}
				res, err := s.Apply(op, g[2], srcs)
				if err != nil {
					t.Fatalf("round %d %v: %v", round, op, err)
				}
				results = append(results, res)
				w, _, err := s.Read(g[2])
				if err != nil {
					t.Fatal(err)
				}
				contents = append(contents, w)
			}
		}
		return results, contents
	}
	cr, cw := run(cached)
	ur, uw := run(uncached)
	if !reflect.DeepEqual(cr, ur) {
		t.Errorf("cached Results diverge from uncached:\ncached   %+v\nuncached %+v", cr, ur)
	}
	if !reflect.DeepEqual(cw, uw) {
		t.Error("cached memory contents diverge from uncached")
	}
	if hits := cached.PerfStats().ProgramCacheHits; hits == 0 {
		t.Error("cached system recorded zero cache hits — cache never engaged, test is vacuous")
	}
}

// TestDRAMApplyRoundPrices pins the triple-row-activation lowering's
// prices to the bit: each op of the repeated-op round over full rows of
// the default DRAM geometry must report the committed simulated latency
// and energy, on the lowering round and on a cache-hit round alike. Their
// mean is 4.0647 µs and 26.700 pJ per result bit.
func TestDRAMApplyRoundPrices(t *testing.T) {
	want := [3]struct {
		op      string
		latency time.Duration
		joules  float64
	}{
		{"and", 1881, 6.7633242e-06},
		{"xor", 6551, 2.17055532e-05},
		{"or3", 3762, 1.35266484e-05},
	}
	_, round := applyRound(t, Config{Tech: DRAM})
	for _, pass := range []string{"lowering", "cached"} {
		for i, r := range round() {
			if w := want[i]; r.Latency != w.latency || r.EnergyJoules != w.joules {
				t.Errorf("%s %s: %v, %v J; want %v, %v J",
					pass, w.op, r.Latency, r.EnergyJoules, w.latency, w.joules)
			}
		}
	}
}

// TestDRAMConfigGates pins the configuration surface: the fault injector
// and replication model resistive sensing margins, so a DRAM system must
// refuse them with a diagnostic naming the technology, while the
// digital-side verify modes (readback, ECC) remain available.
func TestDRAMConfigGates(t *testing.T) {
	if _, err := New(Config{Tech: DRAM, Fault: FaultConfig{Seed: 1, SenseFlipRate: 1e-4}}); err == nil {
		t.Error("fault injection on DRAM accepted, want config error")
	} else if !strings.Contains(err.Error(), "DRAM") {
		t.Errorf("fault-injection error %q does not name DRAM", err)
	}
	if _, err := New(Config{Tech: DRAM, Resilience: ResilienceConfig{Replicate: 3}}); err == nil {
		t.Error("replication on DRAM accepted, want config error")
	} else if !strings.Contains(err.Error(), "DRAM") {
		t.Errorf("replication error %q does not name DRAM", err)
	}
	for _, mode := range []VerifyMode{VerifyReadback, VerifyECC} {
		sys, err := New(Config{Tech: DRAM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: mode}})
		if err != nil {
			t.Fatalf("%v on DRAM rejected: %v", mode, err)
		}
		g, err := sys.AllocGroup(3, 1024)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		a := seedVector(t, sys, rng, g[0], 1024)
		b := seedVector(t, sys, rng, g[1], 1024)
		if _, err := sys.And(g[2], g[0], g[1]); err != nil {
			t.Fatalf("%v AND failed: %v", mode, err)
		}
		w, _, err := sys.Read(g[2])
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			if w[i] != a[i]&b[i] {
				t.Fatalf("%v word %d: got %x want %x", mode, i, w[i], a[i]&b[i])
			}
		}
	}
}
