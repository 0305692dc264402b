package pinatubo

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pinatubo/internal/memarch"
)

// TestPipelinedWindowsDifferential pins the batch-window executor to the
// sequential baseline: the same ops executed as a sequence of pipelined
// windows — each next window admitted (validated, footprinted, sharded)
// WHILE the previous window's shards are still running — produce memory
// contents, row lists, per-op Results and statistics ledgers bit-identical
// to one Apply call per op on an identically seeded twin. Runs with and
// without a fault injector attached; the per-operation fault substreams
// are what make window boundaries invisible to the fault sequence. In the
// worn case shards retire destination rows and their windows replay.
func TestPipelinedWindowsDifferential(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		worn bool
	}{
		{"pcm", Config{Tech: PCM, Geometry: spreadGeometry()}, false},
		{"pcm-readback", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyReadback}}, false},
		{"pcm-faulty", Config{Tech: PCM, Geometry: spreadGeometry(),
			Fault: FaultConfig{Seed: 3, SenseFlipRate: 1e-4, ActivationFailRate: 1e-4}}, false},
		{"pcm-faulty-readback", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyReadback},
			Fault:      FaultConfig{Seed: 9, SenseFlipRate: 1e-3, ActivationFailRate: 1e-4}}, false},
		{"pcm-ecc-wear", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 5, WearLimit: 1000}}, false},
		{"pcm-readback-worn", wornConfig(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			piped, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			bits := wornBits(piped, tc.worn)
			opsA := buildBatchOps(t, piped, bits)
			opsB := buildBatchOps(t, serial, bits)

			want := make([]Result, len(opsB))
			for i, op := range opsB {
				res, err := serial.Apply(op.Op, op.Dst, op.Srcs)
				if err != nil {
					t.Fatalf("sequential op %d (%v): %v", i, op.Op, err)
				}
				want[i] = res
			}

			// Pipelined execution: windows of 2 ops; window N+1 is admitted
			// between window N's Start and Wait — live validation and
			// sharding racing the sandboxed shard goroutines, which the
			// -race build checks is sound.
			const windowLen = 2
			var got []Result
			replays := 0
			builder := piped.NewBatchBuilder()
			var run *BatchRun
			for i := 0; i < len(opsA); i += windowLen {
				if run != nil {
					br, err := run.Wait()
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, br.Results...)
					if br.Shards == 1 {
						replays++ // two bank-disjoint ops shard in two
					}
				}
				for j := i; j < i+windowLen && j < len(opsA); j++ {
					if err := builder.Add(opsA[j]); err != nil {
						t.Fatal(err)
					}
				}
				run, err = builder.Start()
				if err != nil {
					t.Fatal(err)
				}
			}
			br, err := run.Wait()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, br.Results...)
			if br.Shards == 1 {
				replays++
			}
			if tc.worn && replays == 0 {
				t.Error("no window replayed: no shard retired a destination row")
			}

			if len(got) != len(want) {
				t.Fatalf("windows returned %d results, want %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("op %d (%v): windowed result %+v != sequential %+v",
						i, opsA[i].Op, got[i], want[i])
				}
			}
			if a, b := piped.Stats(), serial.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge: windowed %+v, sequential %+v", a, b)
			}
			if a, b := piped.HardwareCounters(), serial.HardwareCounters(); !reflect.DeepEqual(a, b) {
				t.Errorf("HardwareCounters diverge: windowed %+v, sequential %+v", a, b)
			}
			if a, b := piped.FaultStats(), serial.FaultStats(); a != b {
				t.Errorf("FaultStats diverge: windowed %+v, sequential %+v", a, b)
			}
			for i := range opsA {
				vecsA := append([]*BitVector{opsA[i].Dst}, opsA[i].Srcs...)
				vecsB := append([]*BitVector{opsB[i].Dst}, opsB[i].Srcs...)
				for j := range vecsA {
					wa, _, err := piped.Read(vecsA[j])
					if err != nil {
						t.Fatal(err)
					}
					wb, _, err := serial.Read(vecsB[j])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wa, wb) {
						t.Errorf("op %d (%v) vector %d: windowed contents diverge", i, opsA[i].Op, j)
					}
				}
			}
			checkRowLists(t, opsA, opsB)
			checkRowRecords(t, piped, serial, opsB)
		})
	}
}

// TestBatchBuilderIncrementalSharding checks the incremental union-find
// agrees with the batch executor: bank-disjoint ops stay one shard each,
// ops sharing a vector coalesce, and Len/Shards track admission.
func TestBatchBuilderIncrementalSharding(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	b := sys.NewBatchBuilder()
	if b.Len() != 0 || b.Shards() != 0 {
		t.Fatalf("empty builder: Len=%d Shards=%d", b.Len(), b.Shards())
	}
	for i, op := range ops {
		if err := b.Add(op); err != nil {
			t.Fatal(err)
		}
		if b.Len() != i+1 {
			t.Fatalf("after %d adds Len=%d", i+1, b.Len())
		}
		if b.Shards() != i+1 {
			t.Fatalf("bank-disjoint ops: after %d adds Shards=%d", i+1, b.Shards())
		}
	}
	// Two more ops on op 0's destination: both must coalesce into op 0's
	// shard, leaving the count unchanged plus nothing.
	n := b.Shards()
	for i := 0; i < 2; i++ {
		if err := b.Add(BatchOp{Op: OpNot, Dst: ops[0].Dst, Srcs: []*BitVector{ops[0].Dst}}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Shards() != n {
		t.Fatalf("conflicting adds changed shard count: %d -> %d", n, b.Shards())
	}
	run, err := b.Start()
	if err != nil {
		t.Fatal(err)
	}
	br, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if br.Shards != n {
		t.Fatalf("executed Shards=%d, builder predicted %d", br.Shards, n)
	}
	if b.Len() != 0 {
		t.Fatalf("builder not reset after Start: Len=%d", b.Len())
	}
}

// TestShardSetMatchesReference checks the incremental partition against
// a brute-force one: ops whose footprints share a key are connected, and
// the shards are the connected components, each ascending and ordered by
// first op. Footprints are drawn at random over small key spaces, which
// makes chains that hang an earlier root under a later one (the fixed
// case first: op 2 joins op 0's shard to op 1's, so op 1 is op 0's root),
// so a shard's first op is often not its root. One set serves every
// trial through reset, and count must agree with the partition's length.
func TestShardSetMatchesReference(t *testing.T) {
	key := func(k int) fpKey { return fpKey{kind: 'r', addr: memarch.RowAddr{Row: k}} }
	var ss shardSet
	check := func(trial int, fps [][]fpKey) {
		t.Helper()
		ss.reset()
		for _, fp := range fps {
			ss.add(fp)
		}
		want := referenceShards(fps)
		if n := ss.count(); n != len(want) {
			t.Fatalf("trial %d: count()=%d, reference has %d shards (footprints %v)", trial, n, len(want), fps)
		}
		if got := ss.shards(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shards()=%v, reference %v (footprints %v)", trial, got, want, fps)
		}
	}
	check(-1, [][]fpKey{{key(0)}, {key(1)}, {key(0), key(1)}})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		nkeys := 1 + rng.Intn(12)
		fps := make([][]fpKey, 1+rng.Intn(16))
		for i := range fps {
			for n := rng.Intn(4); n > 0; n-- {
				fps[i] = append(fps[i], key(rng.Intn(nkeys)))
			}
		}
		check(trial, fps)
	}
}

// referenceShards partitions ops by brute force: a search from each op
// not yet placed, in op order, collects every op reachable through shared
// keys.
func referenceShards(fps [][]fpKey) [][]int {
	shares := func(a, b []fpKey) bool {
		for _, k := range a {
			if slices.Contains(b, k) {
				return true
			}
		}
		return false
	}
	placed := make([]bool, len(fps))
	var shards [][]int
	for first := range fps {
		if placed[first] {
			continue
		}
		placed[first] = true
		shard := []int{first}
		for q := 0; q < len(shard); q++ {
			for j := range fps {
				if !placed[j] && shares(fps[shard[q]], fps[j]) {
					placed[j] = true
					shard = append(shard, j)
				}
			}
		}
		slices.Sort(shard)
		shards = append(shards, shard)
	}
	return shards
}

// countdownCtx is a deterministic context: Err() reports Canceled from
// the Nth call on. It makes cancellation tests timing-free — the cancel
// lands at an exact, repeatable point in the run's control flow.
type countdownCtx struct {
	context.Context
	calls int64
	after int64
}

func newCountdownCtx(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after}
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBatchRunCancellationAllOrNothing pins the window cancellation
// guarantee: a run cancelled after its shard already executed part of the
// window merges NOTHING — the live System is bit-identical to a twin that
// never saw the batch, and re-running the same ops afterwards matches the
// twin running them sequentially. The worn case runs SECDED under sense
// flips and wear, so the shard programs borrowed rows that develop stuck
// bits (the controller forces those through MutableRow) and carries ECC
// check words and injector row state in from the live System.
func TestBatchRunCancellationAllOrNothing(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"pcm", Config{Tech: PCM, Geometry: spreadGeometry()}},
		{"pcm-ecc-worn", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 5, SenseFlipRate: 1e-3, WearLimit: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const bits = 4096
			ops := buildBatchOps(t, sys, bits)
			twinOps := buildBatchOps(t, twin, bits)
			// matchTwin compares every counter and every op's destination.
			// A merged window sums its float totals per shard, so after one
			// they may differ from the op-order sums by ULPs (see Start).
			matchTwin := func(stage string, merged bool) {
				t.Helper()
				a, b := sys.Stats(), twin.Stats()
				near := func(got *float64, want float64) {
					if merged && math.Abs(*got-want) <= 1e-12*math.Abs(want) {
						*got = want
					}
				}
				near(&a.BusySeconds, b.BusySeconds)
				near(&a.EnergyJoules, b.EnergyJoules)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: stats %+v, twin %+v", stage, a, b)
				}
				if a, b := sys.HardwareCounters(), twin.HardwareCounters(); !reflect.DeepEqual(a, b) {
					t.Errorf("%s: hardware counters %+v, twin %+v", stage, a, b)
				}
				if a, b := sys.FaultStats(), twin.FaultStats(); a != b {
					t.Errorf("%s: fault stats %+v, twin %+v", stage, a, b)
				}
				for i := range ops {
					wa, _, err := sys.Read(ops[i].Dst)
					if err != nil {
						t.Fatal(err)
					}
					wb, _, err := twin.Read(twinOps[i].Dst)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wa, wb) {
						t.Errorf("%s: vector %d diverges from the twin", stage, i)
					}
				}
			}

			// Chain the ops into one shard: op i+1 reads op i's destination,
			// so the sandbox executes them in op order on one goroutine and
			// the countdown context is hit deterministically.
			var chained []BatchOp
			for i := 1; i < len(ops); i++ {
				chained = append(chained, BatchOp{Op: OpCopy, Dst: ops[i].Dst, Srcs: []*BitVector{ops[i-1].Dst}})
			}
			b := sys.NewBatchBuilder()
			for _, op := range chained {
				if err := b.Add(op); err != nil {
					t.Fatal(err)
				}
			}
			if b.Shards() != 1 {
				t.Fatalf("chained ops split into %d shards, want 1", b.Shards())
			}
			// Call 1 is Start's admission check; calls 2..3 let the shard
			// run two ops; call 4 (before op 3) cancels — mid-window, with
			// real sandbox effects already applied.
			ctx := newCountdownCtx(3)
			run, err := b.Start(WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Wait(); err != context.Canceled {
				t.Fatalf("Wait after cancel: err=%v, want context.Canceled", err)
			}
			// Idempotent Wait reports the same outcome.
			if _, err := run.Wait(); err != context.Canceled {
				t.Fatalf("second Wait: err=%v, want context.Canceled", err)
			}
			matchTwin("cancelled window", false)

			// The same window re-admitted under a live context completes,
			// and matches the twin running the same ops sequentially.
			for _, op := range chained {
				if err := b.Add(op); err != nil {
					t.Fatal(err)
				}
			}
			before := sys.FaultStats()
			run, err = b.Start()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Wait(); err != nil {
				t.Fatal(err)
			}
			if after := sys.FaultStats(); tc.cfg.Fault.WearLimit > 0 &&
				(after.StuckBitsForced == before.StuckBitsForced || after.RowsRetired != 0) {
				// The window must have forced stuck bits into the rows it
				// programmed, and merged rather than replayed on the live
				// System (which a retired row would make it do).
				t.Errorf("window fault stats %+v from %+v: want stuck bits forced and no row retired", after, before)
			}
			for i := 1; i < len(twinOps); i++ {
				if _, err := twin.Apply(OpCopy, twinOps[i].Dst, []*BitVector{twinOps[i-1].Dst}); err != nil {
					t.Fatal(err)
				}
			}
			matchTwin("re-admitted window", true)

			// Programming the same rows again on both Systems depends on
			// the wear the window left in the live injector.
			for i := 1; i < len(ops); i++ {
				if _, err := sys.Apply(OpCopy, ops[i].Dst, []*BitVector{ops[i-1].Dst}); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.Apply(OpCopy, twinOps[i].Dst, []*BitVector{twinOps[i-1].Dst}); err != nil {
					t.Fatal(err)
				}
			}
			matchTwin("sequential ops after the window", true)
		})
	}
}

// TestBatchRunStartCancelled checks an already-cancelled context stops
// the window before any sandbox is built.
func TestBatchRunStartCancelled(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	b := sys.NewBatchBuilder()
	if err := b.Add(ops[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Start(WithContext(ctx)); err != context.Canceled {
		t.Fatalf("Start with cancelled ctx: err=%v, want context.Canceled", err)
	}
}

// TestBatchBuilderStaleAfterFree checks the layout-generation guard: a
// vector freed after admission is caught when the builder revalidates,
// instead of executing against recycled rows.
func TestBatchBuilderStaleAfterFree(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	b := sys.NewBatchBuilder()
	if err := b.Add(ops[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Free(ops[0].Dst); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Start(); err == nil || !strings.Contains(err.Error(), "batch op 0") {
		t.Fatalf("Start on freed operand: err=%v, want batch op 0 validation error", err)
	}
}

// TestBatchBuilderRefootprintsAfterRemap pins the layout-generation guard
// for a retirement: a verified host write into a worn source row, made
// after its op was admitted, retires the row and moves the vector to a
// fresh one, so Start must footprint the op again. A stale footprint
// lends the shard the retired row and not the fresh one, and the window's
// OR reads the source as zeros. The window must instead match a twin
// that runs the same writes and then the op through Apply.
func TestBatchBuilderRefootprintsAfterRemap(t *testing.T) {
	newVecs := func(t *testing.T) (*System, *BitVector, *BitVector, *BitVector) {
		t.Helper()
		s, err := New(wornConfig())
		if err != nil {
			t.Fatal(err)
		}
		var vs [3]*BitVector
		for i := range vs {
			if vs[i], err = s.Alloc(s.RowBits()); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(38))
		for _, v := range vs[:2] {
			words := make([]uint64, v.Len()/64)
			for j := range words {
				words[j] = rng.Uint64()
			}
			if _, err := s.Write(v, words); err != nil {
				t.Fatal(err)
			}
		}
		return s, vs[0], vs[1], vs[2]
	}
	// wear rewrites a with random rows until a write retires its row:
	// wornConfig sticks a cell on a row's second program, and each write
	// disagrees with it at even odds. The data a holds then is not zero,
	// so an OR that reads it as zeros is wrong.
	wear := func(t *testing.T, s *System, a *BitVector) int {
		t.Helper()
		old := a.rows[0]
		rng := rand.New(rand.NewSource(3801))
		words := make([]uint64, a.Len()/64)
		for n := 1; n <= 16; n++ {
			for i := range words {
				words[i] = rng.Uint64()
			}
			if _, err := s.Write(a, words); err != nil {
				t.Fatal(err)
			}
			if a.rows[0] != old {
				return n
			}
		}
		t.Fatalf("16 writes into %v retired no row", old)
		return 0
	}

	sys, a, b, dst := newVecs(t)
	twin, ta, tb, tdst := newVecs(t)
	ops := []BatchOp{{Op: OpOr, Dst: dst, Srcs: []*BitVector{a, b}}}
	tops := []BatchOp{{Op: OpOr, Dst: tdst, Srcs: []*BitVector{ta, tb}}}
	bb := sys.NewBatchBuilder()
	if err := bb.Add(ops[0]); err != nil {
		t.Fatal(err)
	}
	if n, m := wear(t, sys, a), wear(t, twin, ta); n != m {
		t.Fatalf("the twins retired after %d and %d writes", n, m)
	}
	run, err := bb.Start()
	if err != nil {
		t.Fatal(err)
	}
	br, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Apply(tops[0].Op, tdst, tops[0].Srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(br.Results[0], want) {
		t.Errorf("window result %+v, sequential %+v", br.Results[0], want)
	}
	got, _, err := sys.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	wantWords, _, err := twin.Read(tdst)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantWords) {
		t.Error("window OR over the remapped source differs from the sequential twin's")
	}
	checkRowLists(t, ops, tops)
	checkRowRecords(t, sys, twin, tops)
	if !reflect.DeepEqual(sys.FaultStats(), twin.FaultStats()) {
		t.Errorf("FaultStats %+v, sequential %+v", sys.FaultStats(), twin.FaultStats())
	}
}

// TestBatchRunDoneSignal checks Done() closes and Wait returns a
// schedule consistent with the admitted ops.
func TestBatchRunDoneSignal(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	b := sys.NewBatchBuilder()
	for _, op := range ops {
		if err := b.Add(op); err != nil {
			t.Fatal(err)
		}
	}
	run, err := b.Start(WithArbiter(ArbOldestReady))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Done() never closed")
	}
	br, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if br.Arb != ArbOldestReady {
		t.Fatalf("Arb=%v, want oldest-ready", br.Arb)
	}
	if len(br.Results) != len(ops) || len(br.Completion) != len(ops) {
		t.Fatalf("result shape %d/%d, want %d", len(br.Results), len(br.Completion), len(ops))
	}
	if br.Makespan <= 0 || br.Makespan > br.Sequential {
		t.Fatalf("Makespan=%v outside (0, %v]", br.Makespan, br.Sequential)
	}
}

// TestWindowWiderThanSandboxPool runs a window of more disjoint ops than
// the sandbox pool keeps, twice. The first run builds one sandbox per
// shard and returns sandboxPoolCap of them to the pool, dropping the
// rest; the second reuses the pooled ones and builds the others. Both
// runs and the PerfStats that follows must finish within the deadline:
// a release that kept the pool's lock on its full-pool path would hang
// the next release.
func TestWindowWiderThanSandboxPool(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, sandboxPoolCap+2)
	for i := range ops {
		g, err := sys.AllocGroup(3, 512)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = BatchOp{Op: OpAnd, Dst: g[2], Srcs: g[:2]}
	}
	type outcome struct {
		shards [2]int
		perf   PerfStats
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		for round := range out.shards {
			br, err := sys.Batch(ops)
			if err != nil {
				out.err = err
				done <- out
				return
			}
			out.shards[round] = br.Shards
		}
		out.perf = sys.PerfStats()
		done <- out
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("two windows wider than the sandbox pool did not finish in 20s")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	for round, n := range out.shards {
		if n != len(ops) {
			t.Errorf("run %d: %d shards, want one per op (%d)", round, n, len(ops))
		}
	}
	if want := int64(2 * len(ops)); out.perf.SandboxPoolGets != want {
		t.Errorf("SandboxPoolGets = %d, want %d", out.perf.SandboxPoolGets, want)
	}
	if out.perf.SandboxPoolReuses != sandboxPoolCap {
		t.Errorf("SandboxPoolReuses = %d, want the pool's cap %d", out.perf.SandboxPoolReuses, sandboxPoolCap)
	}
}
