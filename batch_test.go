package pinatubo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
)

// spreadGeometry is a single-channel, single-rank organisation with one
// subarray per bank, so successive operand groups land in successive banks
// and a batch's ops are bank-disjoint — the layout the batch scheduler's
// concurrency (and its bit-identity with the planner) is easiest to see in.
func spreadGeometry() Geometry {
	return Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     16,
		SubarraysPerBank: 1,
		MatsPerSubarray:  16,
		RowsPerSubarray:  256,
		MatRowBits:       4096,
		MuxRatio:         32,
	}
}

// buildBatchOps allocates and seeds one op of every public kind on s, each
// in its own operand group (its own bank under spreadGeometry), with data
// drawn from a fixed seed — calling it on two identically configured
// systems produces bit-identical twins.
func buildBatchOps(t *testing.T, s *System, bits int) []BatchOp {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	words := (bits + 63) / 64
	seed := func(v *BitVector) {
		data := make([]uint64, words)
		for i := range data {
			data[i] = rng.Uint64()
		}
		if _, err := s.Write(v, data); err != nil {
			t.Fatal(err)
		}
	}
	var ops []BatchOp
	add := func(op Op, nsrc int) {
		g, err := s.AllocGroup(nsrc+1, bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g {
			seed(v)
		}
		ops = append(ops, BatchOp{Op: op, Dst: g[nsrc], Srcs: g[:nsrc]})
	}
	add(OpOr, 4) // 4 operands: chained past STT-MRAM's 2-row depth limit
	add(OpAnd, 2)
	add(OpXor, 2)
	add(OpNot, 1)
	add(OpCopy, 1)
	add(OpPopcount, 0)
	return ops
}

// TestBatchDifferential checks the batch executor against the sequential
// path it must be indistinguishable from: for every technology and verify
// mode, Batch of N ops on one system and N Apply calls on an identically
// seeded twin produce bit-identical per-op Results, memory contents, row
// lists and statistics ledgers.
func TestBatchDifferential(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// replay says a shard retires a destination row, so the window
		// replays sequentially on the live system (Shards 1).
		replay bool
	}{
		{"pcm", Config{Tech: PCM, Geometry: spreadGeometry()}, false},
		{"stt-mram", Config{Tech: STTMRAM, Geometry: spreadGeometry()}, false},
		{"reram", Config{Tech: ReRAM, Geometry: spreadGeometry()}, false},
		{"pcm-readback", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyReadback}}, false},
		{"pcm-ecc", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC}}, false},
		{"pcm-faulty", Config{Tech: PCM, Geometry: spreadGeometry(),
			Fault: FaultConfig{Seed: 3, SenseFlipRate: 1e-4, ActivationFailRate: 1e-4}}, false},
		{"pcm-faulty-hot", Config{Tech: PCM, Geometry: spreadGeometry(),
			Fault: FaultConfig{Seed: 9, SenseFlipRate: 1e-3, ActivationFailRate: 1e-4}}, false},
		{"pcm-replicated-faulty", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyReadback, Replicate: 3},
			Fault:      FaultConfig{Seed: 3, SenseFlipRate: 1e-3, ActivationFailRate: 1e-4}}, false},
		// Wear accrues on every program but never reaches a stuck bit, so
		// the window still runs one op per shard and merges wear and
		// check words.
		{"pcm-ecc-wear", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 5, WearLimit: 1000}}, false},
		// Rows wear out after two programs: a shard retires a destination
		// row, which must move only the sandbox's copy of the row list.
		{"pcm-readback-worn", wornConfig(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			bits := wornBits(batched, tc.replay)
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
			br, err := batched.Batch(opsA)
			if err != nil {
				t.Fatal(err)
			}

			for i := range opsA {
				if !reflect.DeepEqual(br.Results[i], want[i]) {
					t.Errorf("op %d (%v): batch result %+v != sequential %+v",
						i, opsA[i].Op, br.Results[i], want[i])
				}
			}
			// Per-op fault substreams let even fault-injected batches shard:
			// these ops are bank-disjoint, so every case runs one op per
			// shard, except that a mid-batch row retirement replays
			// sequentially.
			if want := len(opsA); !tc.replay && br.Shards != want {
				t.Errorf("Shards=%d, want %d (bank-disjoint ops)", br.Shards, want)
			}
			if tc.replay && br.Shards != 1 {
				t.Errorf("Shards=%d, want 1 (a shard retired a row and the batch replayed)", br.Shards)
			}
			if br.Makespan <= 0 || br.Makespan > br.Sequential {
				t.Errorf("Makespan=%v outside (0, Sequential=%v]", br.Makespan, br.Sequential)
			}
			if len(br.Completion) != len(opsA) {
				t.Errorf("Completion has %d entries, want %d", len(br.Completion), len(opsA))
			}

			// Ledgers. Every counter is integer except BusySeconds and
			// EnergyJoules, and with one op per shard even those merge in
			// op order — so the comparison is fully bit-identical.
			if a, b := batched.Stats(), serial.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge: batch %+v, sequential %+v", a, b)
			}
			if a, b := batched.HardwareCounters(), serial.HardwareCounters(); !reflect.DeepEqual(a, b) {
				t.Errorf("HardwareCounters diverge: batch %+v, sequential %+v", a, b)
			}
			if a, b := batched.FaultStats(), serial.FaultStats(); a != b {
				t.Errorf("FaultStats diverge: batch %+v, sequential %+v", a, b)
			}
			if tc.cfg.Resilience.Verify == VerifyECC && batched.FaultStats().EccDecodes == 0 {
				t.Error("VerifyECC batch recorded no ECC decodes — batch path dropped counters")
			}

			// Memory contents, vector by vector (sources included: the
			// batch must not corrupt what it only reads).
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
			checkRowLists(t, opsA, opsB)
			checkRowRecords(t, batched, serial, opsB)
		})
	}
}

// wornConfig wears a row's first stuck bit on its second program, under
// read-back verification: buildBatchOps seeds every row once, so over
// full-row vectors (wornBits) the window's destination writes stick bits
// that verification catches, and shards retire destination rows. A stuck
// bit lands anywhere in the row, so a narrower vector rarely sees one.
func wornConfig() Config {
	return Config{Tech: PCM, Geometry: spreadGeometry(),
		Resilience: ResilienceConfig{Verify: VerifyReadback},
		Fault:      FaultConfig{Seed: 1, WearLimit: 2}}
}

// wornBits returns the vector length the replaying cases run at: full
// rows for wornConfig, 4,096 bits otherwise.
func wornBits(s *System, replay bool) int {
	if replay {
		return s.RowBits()
	}
	return 4096
}

// checkRowLists compares the row list of every vector the windowed twin's
// ops name with the serial twin's. The twins allocate identically, so a
// list that differs means a shard moved a live vector's row, which only
// the sequential replay of a window may do.
func checkRowLists(t *testing.T, windowed, serial []BatchOp) {
	t.Helper()
	for i := range windowed {
		vecsA := append([]*BitVector{windowed[i].Dst}, windowed[i].Srcs...)
		vecsB := append([]*BitVector{serial[i].Dst}, serial[i].Srcs...)
		for j := range vecsA {
			if !slices.Equal(vecsA[j].rows, vecsB[j].rows) {
				t.Errorf("op %d (%v) vector %d: windowed rows %v, sequential %v",
					i, windowed[i].Op, j, vecsA[j].rows, vecsB[j].rows)
			}
		}
	}
}

// checkRowRecords compares the row records a windowed twin and a serial
// twin left: the hottest row, and every footprint row's program count,
// check words and wear. The twins allocate identically, so the serial
// twin's footprints name the windowed twin's rows too. Under ECC some row
// must hold check words and under a wear limit some row must have worn,
// or the comparison would be vacuous.
func checkRowRecords(t *testing.T, windowed, serial *System, ops []BatchOp) {
	t.Helper()
	a, n := windowed.HottestRow()
	b, m := serial.HottestRow()
	if a != b || n != m {
		t.Errorf("HottestRow: windowed %q/%d, sequential %q/%d", a, n, b, m)
	}
	fp := serial.NewBatchBuilder()
	for _, op := range ops {
		if err := fp.Add(op); err != nil {
			t.Fatal(err)
		}
	}
	checked, worn := false, false
	for i := range ops {
		for _, k := range fp.footprint(i) {
			if k.kind != 'r' {
				continue
			}
			a := k.addr
			if got, want := windowed.mem.RowWriteCount(a), serial.mem.RowWriteCount(a); got != want {
				t.Errorf("op %d row %v: windowed programs %d, sequential %d", i, a, got, want)
			}
			gb, gw, gok := windowed.mem.Check(a)
			wb, ww, wok := serial.mem.Check(a)
			if gb != wb || gok != wok || !slices.Equal(gw, ww) {
				t.Errorf("op %d row %v: windowed check words %d/%x, sequential %d/%x", i, a, gb, gw, wb, ww)
			}
			if got, want := windowed.mem.Wear(a), serial.mem.Wear(a); !reflect.DeepEqual(got, want) {
				t.Errorf("op %d row %v: windowed wear %+v, sequential %+v", i, a, got, want)
			}
			checked = checked || wok
			worn = worn || serial.mem.Wear(a).Events > 0
		}
	}
	cfg := serial.cfg
	if cfg.Resilience.Verify == VerifyECC && !checked {
		t.Error("no footprint row holds check words under VerifyECC")
	}
	if cfg.Fault.WearLimit > 0 && !worn {
		t.Error("no footprint row wore under a wear limit")
	}
}

// TestBatchSkipsRetiredScratchRow wears out the scratch row of an OR
// across two subarrays, then runs that OR once more as a one-op batch on
// one twin and through Apply on the other. Once the scratch row is
// retired, sequential execution puts the partial in a row on loan, so a
// shard must not write it into the retired row: Start sees the
// retirement in the window's footprint, takes no sandbox and runs no
// shard, and the window replays sequentially (cancelled before Wait, it
// applies none of its ops). The operands are
// zeros while the row wears out and ones after, so on some seeds the
// retired row's stuck bits agree with the partial and a shard that wrote
// it there would verify; only the row records would then differ. Sources
// wear out and move too, so on some seeds the last OR no longer needs a
// retired scratch row and its window runs its shard; the no-sandbox check
// applies to the others.
func TestBatchSkipsRetiredScratchRow(t *testing.T) {
	replayed := 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			cfg := Config{Tech: PCM, Geometry: pinGeometry(),
				Resilience: ResilienceConfig{Verify: VerifyReadback},
				Fault:      FaultConfig{Seed: seed, WearLimit: 2}}
			build := func() (*System, []BatchOp) {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				bits := s.RowBits()
				// Two sources fill the head of subarray 0, a filler group
				// the rest of it, and the next group lands in subarray 1.
				var gs [][]*BitVector
				for _, n := range []int{2, s.UsableRowsPerSubarray() - 2, 3} {
					g, err := s.AllocGroup(n, bits)
					if err != nil {
						t.Fatal(err)
					}
					gs = append(gs, g)
				}
				srcs := []*BitVector{gs[0][0], gs[0][1], gs[2][0], gs[2][1]}
				return s, []BatchOp{{Op: OpOr, Dst: gs[2][2], Srcs: srcs}}
			}
			fill := func(s *System, op BatchOp, v uint64) {
				words := make([]uint64, s.RowBits()/64)
				for i := range words {
					words[i] = v
				}
				for _, x := range op.Srcs {
					if _, err := s.Write(x, words); err != nil {
						t.Fatal(err)
					}
				}
			}
			batched, opsA := build()
			serial, opsB := build()
			scratch := pimrt.ScratchRow(batched.mem.Geometry(), opsA[0].Srcs[0].rows[0])
			for _, tw := range []struct {
				s  *System
				op BatchOp
			}{{batched, opsA[0]}, {serial, opsB[0]}} {
				fill(tw.s, tw.op, 0)
				for i := 0; !tw.s.alloc.Retired(scratch); i++ {
					if i == 20 {
						t.Fatal("20 ORs did not retire the scratch row")
					}
					if _, err := tw.s.Apply(tw.op.Op, tw.op.Dst, tw.op.Srcs); err != nil {
						t.Fatal(err)
					}
				}
				fill(tw.s, tw.op, ^uint64(0))
			}

			// The OR puts a partial in the scratch row of every subarray
			// that holds two of its sources.
			needsRetired := false
			perScratch := map[memarch.RowAddr]int{}
			for _, x := range opsA[0].Srcs {
				sc := pimrt.ScratchRow(batched.mem.Geometry(), x.rows[0])
				if perScratch[sc]++; perScratch[sc] == 2 && batched.alloc.Retired(sc) {
					needsRetired = true
				}
			}
			if needsRetired {
				// The replay stops between ops: cancelled before Wait,
				// the window applies none, which the comparisons with
				// the twin below would show.
				ctx, cancel := context.WithCancel(context.Background())
				b := batched.NewBatchBuilder()
				if err := b.Add(opsA[0]); err != nil {
					t.Fatal(err)
				}
				run, err := b.Start(WithContext(ctx))
				if err != nil {
					t.Fatal(err)
				}
				cancel()
				if _, err := run.Wait(); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled replaying window returned %v, want context.Canceled", err)
				}
			}
			gets := batched.PerfStats().SandboxPoolGets
			br, err := batched.Batch(opsA)
			if err != nil {
				t.Fatal(err)
			}
			if got := batched.PerfStats().SandboxPoolGets; needsRetired {
				replayed++
				if got != gets {
					t.Errorf("a window over a retired row took %d sandboxes; want it replayed without one", got-gets)
				}
			}
			want, err := serial.Apply(opsB[0].Op, opsB[0].Dst, opsB[0].Srcs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br.Results[0], want) {
				t.Errorf("batch result %+v != sequential %+v", br.Results[0], want)
			}
			if a, b := batched.FaultStats(), serial.FaultStats(); a != b {
				t.Errorf("FaultStats diverge: batch %+v, sequential %+v", a, b)
			}
			if a, b := batched.Stats(), serial.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge: batch %+v, sequential %+v", a, b)
			}
			checkRowLists(t, opsA, opsB)
			checkRowRecords(t, batched, serial, opsB)
		})
	}
	if replayed == 0 {
		t.Error("no seed's last OR needed a retired scratch row")
	}
}

// TestBatchMakespanMatchesPlan pins the tentpole acceptance criterion: at
// fault rate 0, Batch of k bank-disjoint ORs reports exactly the makespan
// Plan predicts for k in-flight ORs — bit-identical, both arbiters.
// Planner and executor lower through the same cmdstream programs and
// schedule through the same engine, so the planner's model is checked
// against execution, not estimated.
func TestBatchMakespanMatchesPlan(t *testing.T) {
	const k = 8
	for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
		t.Run(arb.String(), func(t *testing.T) {
			sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			ops := make([]BatchOp, k)
			for i := range ops {
				srcs, err := sys.AllocGroup(sys.MaxORRows(), sys.RowBits())
				if err != nil {
					t.Fatal(err)
				}
				dst, err := sys.Alloc(sys.RowBits())
				if err != nil {
					t.Fatal(err)
				}
				// The layout the identity depends on: op i wholly in bank i,
				// mirroring the planner's template-in-bank-0 offset by i.
				if b := srcs[0].rows[0].Bank; b != i || dst.rows[0].Bank != i {
					t.Fatalf("op %d landed in banks %d/%d, want %d — allocator layout changed",
						i, b, dst.rows[0].Bank, i)
				}
				ops[i] = BatchOp{Op: OpOr, Dst: dst, Srcs: srcs}
			}
			rep, err := sys.Plan(OpOr, k, 0, WithArbiter(arb))
			if err != nil {
				t.Fatal(err)
			}
			br, err := sys.Batch(ops, WithArbiter(arb))
			if err != nil {
				t.Fatal(err)
			}
			last := rep.Points[len(rep.Points)-1]
			if last.Concurrency != k {
				t.Fatalf("plan's last point is k=%d, want %d", last.Concurrency, k)
			}
			if br.Makespan != last.Makespan {
				t.Errorf("batch makespan %v != planned makespan %v (must be bit-identical at fault 0)",
					br.Makespan, last.Makespan)
			}
			if br.Speedup <= 1 {
				t.Errorf("bank-disjoint batch speedup %v, want > 1", br.Speedup)
			}
			if br.Shards != k {
				t.Errorf("Shards=%d want %d", br.Shards, k)
			}
		})
	}
}

// TestBatchSharedVectors checks sequential semantics under data
// dependencies: an op reading another op's destination must see the
// earlier op's output, exactly as consecutive Apply calls would.
func TestBatchSharedVectors(t *testing.T) {
	cfg := Config{Tech: PCM, Geometry: spreadGeometry()}
	batched, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 2048
	mk := func(s *System) []BatchOp {
		g, err := s.AllocGroup(5, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for _, v := range g[:3] {
			data := make([]uint64, bits/64)
			for i := range data {
				data[i] = rng.Uint64()
			}
			if _, err := s.Write(v, data); err != nil {
				t.Fatal(err)
			}
		}
		a, b, c, d1, d2 := g[0], g[1], g[2], g[3], g[4]
		return []BatchOp{
			{Op: OpOr, Dst: d1, Srcs: []*BitVector{a, b}},
			{Op: OpAnd, Dst: d2, Srcs: []*BitVector{d1, c}}, // reads op 0's output
		}
	}
	opsA, opsB := mk(batched), mk(serial)
	var want []Result
	for _, op := range opsB {
		res, err := serial.Apply(op.Op, op.Dst, op.Srcs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	br, err := batched.Batch(opsA)
	if err != nil {
		t.Fatal(err)
	}
	if br.Shards != 1 {
		t.Errorf("dependent ops ran on %d shards, want 1 (shared footprint)", br.Shards)
	}
	for i := range opsA {
		if !reflect.DeepEqual(br.Results[i], want[i]) {
			t.Errorf("op %d: %+v != sequential %+v", i, br.Results[i], want[i])
		}
	}
	wa, _, err := batched.Read(opsA[1].Dst)
	if err != nil {
		t.Fatal(err)
	}
	wb, _, err := serial.Read(opsB[1].Dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wa, wb) {
		t.Error("dependent op's destination diverges from sequential execution")
	}
}

// TestBatchStatsNoDropNoDouble checks the satellite guarantee directly:
// the lifetime Stats deltas of a batch equal the sum of its per-op Results
// — nothing dropped by the shard merge, nothing double-counted.
func TestBatchStatsNoDropNoDouble(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	before := sys.Stats()
	br, err := sys.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Stats()

	var wantReq int64
	var wantJoules float64
	for _, r := range br.Results {
		wantReq += int64(r.Requests)
		wantJoules += r.EnergyJoules
	}
	if got := after.Requests - before.Requests; got != wantReq {
		t.Errorf("Requests delta %d != summed per-op requests %d", got, wantReq)
	}
	var opsDelta int64
	for k, v := range after.Ops {
		opsDelta += v - before.Ops[k]
	}
	if opsDelta != int64(len(ops)) {
		t.Errorf("Ops delta %d != %d batch ops", opsDelta, len(ops))
	}
	gotJoules := after.EnergyJoules - before.EnergyJoules
	if math.Abs(gotJoules-wantJoules) > 1e-12*wantJoules {
		t.Errorf("EnergyJoules delta %g != summed per-op energy %g", gotJoules, wantJoules)
	}
}

// TestBatchRejects covers the validation surface: empty batches, unknown
// arbiters, arity violations, freed vectors and cross-rank operand sets
// all fail up front, before any memory effect.
func TestBatchRejects(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Batch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	g, err := sys.AllocGroup(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	ok := []BatchOp{{Op: OpAnd, Dst: g[2], Srcs: []*BitVector{g[0], g[1]}}}
	if _, err := sys.Batch(ok, WithArbiter(Arbiter(9))); err == nil {
		t.Error("unknown arbiter accepted")
	}
	if _, err := sys.Batch([]BatchOp{{Op: OpAnd, Dst: g[2], Srcs: []*BitVector{g[0]}}}); err == nil {
		t.Error("arity violation accepted")
	}
	if _, err := sys.Batch([]BatchOp{{Op: OpPopcount, Dst: g[2], Srcs: []*BitVector{g[0]}}}); err == nil {
		t.Error("popcount with sources accepted")
	}
	freed, err := sys.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Free(freed); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Batch([]BatchOp{{Op: OpNot, Dst: g[2], Srcs: []*BitVector{freed}}}); err == nil {
		t.Error("freed vector accepted")
	}

	// Cross-rank: exhaust rank 0 so the next vector lands in rank 1.
	small := Geometry{
		Channels: 1, RanksPerChannel: 2, ChipsPerRank: 1, BanksPerChip: 1,
		SubarraysPerBank: 1, MatsPerSubarray: 1, RowsPerSubarray: 4,
		MatRowBits: 2048, MuxRatio: 32,
	}
	tiny, err := New(Config{Tech: PCM, Geometry: small})
	if err != nil {
		t.Fatal(err)
	}
	var last *BitVector
	for last == nil || last.rows[0].Rank == 0 {
		v, err := tiny.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && v.rows[0].Rank == 1 {
			src := last
			_, err := tiny.Batch([]BatchOp{{Op: OpCopy, Dst: v, Srcs: []*BitVector{src}}})
			if err == nil || !strings.Contains(err.Error(), "span ranks") {
				t.Errorf("cross-rank op error = %v, want span-ranks rejection", err)
			}
			return
		}
		last = v
	}
}

// TestBatchRepeatedSource checks that an op naming one source vector
// twice is refused before anything runs: Apply returns the error, and a
// Batch holding it ahead of a valid op returns the error with every
// vector unchanged, as a sequence of Apply calls stopped at the failing
// op would leave them.
func TestBatchRepeatedSource(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 512
	bad, err := sys.AllocGroup(2, bits)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sys.AllocGroup(3, bits)
	if err != nil {
		t.Fatal(err)
	}
	vecs := append(append([]*BitVector{}, bad...), good...)
	rng := rand.New(rand.NewSource(13))
	want := make([][]uint64, len(vecs))
	for i, v := range vecs {
		want[i] = make([]uint64, bits/64)
		for j := range want[i] {
			want[i][j] = rng.Uint64()
		}
		if _, err := sys.Write(v, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	repeated := BatchOp{Op: OpAnd, Dst: bad[1], Srcs: []*BitVector{bad[0], bad[0]}}
	if _, err := sys.Apply(repeated.Op, repeated.Dst, repeated.Srcs); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("Apply naming a source twice: err = %v, want a repeated-source error", err)
	}
	_, err = sys.Batch([]BatchOp{repeated, {Op: OpXor, Dst: good[2], Srcs: good[:2]}})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("Batch with a source named twice: err = %v, want a repeated-source error", err)
	}
	for i, v := range vecs {
		got, _, err := sys.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("vector %d changed by a batch that failed at its first op", i)
		}
	}
}
