package pinatubo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
)

func newSys(t testing.TB) *System {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTechStrings(t *testing.T) {
	if PCM.String() != "PCM" || STTMRAM.String() != "STT-MRAM" || ReRAM.String() != "ReRAM" {
		t.Error("tech names wrong")
	}
	if Tech(9).String() == "" {
		t.Error("unknown tech string empty")
	}
	if _, err := New(Config{Tech: Tech(9)}); err == nil {
		t.Error("unknown tech accepted")
	}
}

func TestDefaults(t *testing.T) {
	s := newSys(t)
	if s.MaxORRows() != 128 {
		t.Errorf("MaxORRows=%d want 128 for PCM", s.MaxORRows())
	}
	if s.RowBits() != 1<<19 {
		t.Errorf("RowBits=%d want 2^19", s.RowBits())
	}
	// Zero geometry in the config means default.
	s2, err := New(Config{Tech: PCM})
	if err != nil {
		t.Fatal(err)
	}
	if s2.RowBits() != 1<<19 {
		t.Error("zero geometry did not default")
	}
}

func TestSTTMRAMSystem(t *testing.T) {
	s, err := New(Config{Tech: STTMRAM, AnalogCheckBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxORRows() != 2 {
		t.Errorf("STT-MRAM MaxORRows=%d want 2", s.MaxORRows())
	}
}

func TestAllocAndFree(t *testing.T) {
	s := newSys(t)
	b, err := s.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1000 || b.Rows() != 1 {
		t.Errorf("Len=%d Rows=%d", b.Len(), b.Rows())
	}
	big, err := s.Alloc(1 << 21) // 4 rows
	if err != nil {
		t.Fatal(err)
	}
	if big.Rows() != 4 {
		t.Errorf("2^21-bit vector has %d rows want 4", big.Rows())
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err == nil {
		t.Error("double free accepted")
	}
	if _, err := s.Alloc(0); err == nil {
		t.Error("zero-bit alloc accepted")
	}
}

// TestFailedAllocTakesNoRows pins allocation as all or nothing: after an
// Alloc too large for the memory fails, with a freed row waiting on the
// free list, the system hands out exactly the rows (and replica rows) of
// a twin that never made the call, until both run out together.
func TestFailedAllocTakesNoRows(t *testing.T) {
	geo := Geometry{
		Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1, BanksPerChip: 1,
		SubarraysPerBank: 2, MatsPerSubarray: 1, RowsPerSubarray: 8,
		MatRowBits: 2048, MuxRatio: 32,
	}
	for _, rep := range []int{0, 3} {
		failed, twin := twoSys(t, Config{Tech: PCM, Geometry: geo,
			Resilience: ResilienceConfig{Verify: VerifyReadback, Replicate: rep}})
		for _, s := range []*System{failed, twin} {
			v, err := s.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Alloc(64); err != nil {
				t.Fatal(err)
			}
			if err := s.Free(v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := failed.Alloc(100 * failed.RowBits()); !errors.Is(err, pimrt.ErrOutOfMemory) {
			t.Fatalf("replicate %d: oversized Alloc err = %v, want ErrOutOfMemory", rep, err)
		}
		for n := 0; ; n++ {
			a, errA := failed.Alloc(64)
			b, errB := twin.Alloc(64)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("replicate %d vector %d: err %v, twin err %v", rep, n, errA, errB)
			}
			if errA != nil {
				break
			}
			if !reflect.DeepEqual(a.rows, b.rows) ||
				!reflect.DeepEqual(failed.mem.Replicas(a.rows[0]), twin.mem.Replicas(b.rows[0])) {
				t.Fatalf("replicate %d vector %d: rows %v (replicas %v), twin %v (replicas %v)", rep, n,
					a.rows, failed.mem.Replicas(a.rows[0]), b.rows, twin.mem.Replicas(b.rows[0]))
			}
		}
	}
}

// TestOversizedAllocFailsBeforeAllocating pins that a request for more
// rows than the memory has left fails with ErrOutOfMemory before it
// allocates host memory in proportion to the request, with and without
// replication, up to sizes whose row count would overflow; so does an
// AllocGroup wider than a subarray whose replica count would overflow.
func TestOversizedAllocFailsBeforeAllocating(t *testing.T) {
	for _, rep := range []int{0, 3} {
		cfg := DefaultConfig()
		cfg.Resilience = ResilienceConfig{Verify: VerifyReadback, Replicate: rep}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.replicate != rep {
			t.Fatalf("replicate %d: system replicates %d", rep, s.replicate)
		}
		// The largest sizes come first: at 1<<44 bits an allocator that
		// sizes its result before checking would allocate over a GiB.
		for _, bits := range []int{math.MaxInt, 1 << 62, 1 << 44} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.Alloc(bits)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, pimrt.ErrOutOfMemory) {
				t.Errorf("replicate %d: Alloc(%d) err = %v, want ErrOutOfMemory", rep, bits, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("replicate %d: Alloc(%d) allocated %d bytes, want under 1 MiB", rep, bits, got)
			}
		}
		// count*3 wraps to 2, which a group allocation would satisfy.
		if _, err := s.AllocGroup(math.MaxUint64/3+1, 1); err == nil {
			t.Errorf("replicate %d: AllocGroup wider than a subarray accepted", rep)
		}
		if _, err := s.Alloc(64); err != nil {
			t.Errorf("replicate %d: Alloc after the oversized ones: %v", rep, err)
		}
	}
}

// TestAllocGroupFreeLoopReusesRows pins that group allocation recycles
// freed rows: an AllocGroup/Free loop (and a replicated Alloc/Free loop,
// which allocates every row as a replica group) keeps the live and
// materialised row counts bounded instead of advancing the frontier
// forever, and every group it hands out still shares one subarray.
func TestAllocGroupFreeLoopReusesRows(t *testing.T) {
	const iters = 10000
	const bits = 256
	words := []uint64{1, 2, 3, 4}

	t.Run("group", func(t *testing.T) {
		s := newSys(t)
		var live [][]*BitVector // two groups stay live, so frees interleave
		for i := 0; i < iters; i++ {
			g, err := s.AllocGroup(1+i%5, bits)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			for _, v := range g {
				if !memarch.SameSubarray(v.rows[0], g[0].rows[0]) {
					t.Fatalf("iteration %d: group spans subarrays (%v, %v)", i, g[0].rows[0], v.rows[0])
				}
				if _, err := s.Write(v, words); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, g)
			if len(live) > 2 {
				for _, v := range live[0] {
					if err := s.Free(v); err != nil {
						t.Fatal(err)
					}
				}
				live = live[1:]
			}
		}
		// At most three groups of at most five rows were ever live at once.
		if n := s.alloc.AllocatedRows(); n > 15 {
			t.Errorf("%d rows allocated after the loop, want <= 15", n)
		}
		if n := s.mem.MaterializedRows(); n > 64 {
			t.Errorf("%d rows materialised after %d iterations, want a bounded handful", n, iters)
		}
	})

	t.Run("replicated", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Resilience = ResilienceConfig{Verify: VerifyReadback, Replicate: 3}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			v, err := s.Alloc(bits)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			reps := s.mem.Replicas(v.rows[0])
			if len(reps) != 2 {
				t.Fatalf("iteration %d: %d replicas, want 2", i, len(reps))
			}
			for _, rep := range reps {
				if !memarch.SameSubarray(rep, v.rows[0]) {
					t.Fatalf("iteration %d: replica %v outside the primary's subarray %v", i, rep, v.rows[0])
				}
			}
			if _, err := s.Write(v, words); err != nil {
				t.Fatal(err)
			}
			if err := s.Free(v); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.alloc.AllocatedRows(); n != 0 {
			t.Errorf("%d rows still allocated after freeing everything", n)
		}
		if n := s.mem.MaterializedRows(); n > 16 {
			t.Errorf("%d rows materialised after %d iterations, want a bounded handful", n, iters)
		}
	})
}

func TestForeignVectorRejected(t *testing.T) {
	s1 := newSys(t)
	s2 := newSys(t)
	b, err := s1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Read(b); err == nil {
		t.Error("vector from another system accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newSys(t)
	b, err := s.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint64{0xDEADBEEF, ^uint64(0), 0x42, 0xFF}
	res, err := s.Write(b, words)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.EnergyJoules <= 0 {
		t.Error("write should cost time and energy")
	}
	got, _, err := s.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	// Tail bits beyond 200 must read back zero.
	if got[0] != 0xDEADBEEF || got[1] != ^uint64(0) || got[2] != 0x42 {
		t.Errorf("read back %x", got[:3])
	}
	if got[3] != 0xFF&((1<<8)-1) {
		t.Errorf("tail word %x want %x", got[3], 0xFF)
	}
	if _, err := s.Write(b, make([]uint64, 10)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestGroupOrOneStep(t *testing.T) {
	s := newSys(t)
	const n, bits = 64, 4096
	vs, err := s.AllocGroup(n, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := make([]uint64, bits/64)
	for _, v := range vs {
		words := make([]uint64, bits/64)
		for i := range words {
			words[i] = rng.Uint64()
			want[i] |= words[i]
		}
		if _, err := s.Write(v, words); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := s.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Or(dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	// 64 co-located operands ≤ 128-row depth: a single one-step request.
	if res.Requests != 1 {
		t.Errorf("requests=%d want 1 (one-step 64-row OR)", res.Requests)
	}
	if res.Class != PlaceIntraSubarray {
		t.Errorf("class=%q", res.Class)
	}
	got, _, err := s.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
}

func TestWideOrChains(t *testing.T) {
	s := newSys(t)
	vs, err := s.AllocGroup(200, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if _, err := s.Write(v, []uint64{1 << (i % 60)}); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := s.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Or(dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Errorf("200-operand OR took %d requests, want 2 (128 + chain)", res.Requests)
	}
	got, _, err := s.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := range vs {
		want |= 1 << (i % 60)
	}
	if got[0] != want {
		t.Errorf("OR=%x want %x", got[0], want)
	}
}

func TestBinaryOpsFunctional(t *testing.T) {
	s := newSys(t)
	const bits = 256
	a, _ := s.Alloc(bits)
	b, _ := s.Alloc(bits)
	dst, _ := s.Alloc(bits)
	rng := rand.New(rand.NewSource(2))
	aw := make([]uint64, 4)
	bw := make([]uint64, 4)
	for i := range aw {
		aw[i], bw[i] = rng.Uint64(), rng.Uint64()
	}
	if _, err := s.Write(a, aw); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(b, bw); err != nil {
		t.Fatal(err)
	}

	check := func(name string, run func() error, want func(i int) uint64) {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _, err := s.Read(dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want(i) {
				t.Fatalf("%s word %d mismatch", name, i)
			}
		}
	}
	check("and", func() error { _, err := s.And(dst, a, b); return err },
		func(i int) uint64 { return aw[i] & bw[i] })
	check("xor", func() error { _, err := s.Xor(dst, a, b); return err },
		func(i int) uint64 { return aw[i] ^ bw[i] })
	check("not", func() error { _, err := s.Not(dst, a); return err },
		func(i int) uint64 { return ^aw[i] })
	check("copy", func() error { _, err := s.Copy(dst, a); return err },
		func(i int) uint64 { return aw[i] })
}

func TestMultiRowVectors(t *testing.T) {
	// Vectors spanning several physical rows operate batch by batch.
	s := newSys(t)
	bits := s.RowBits() * 2
	a, _ := s.Alloc(bits)
	b, _ := s.Alloc(bits)
	dst, _ := s.Alloc(bits)
	w := bits / 64
	aw := make([]uint64, w)
	bw := make([]uint64, w)
	aw[0], aw[w-1] = 5, 9
	bw[0], bw[w-1] = 3, 12
	if _, err := s.Write(a, aw); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(b, bw); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Or(dst, a, b); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[w-1] != 13 {
		t.Errorf("multi-row OR wrong: %d %d", got[0], got[w-1])
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	s := newSys(t)
	a, _ := s.Alloc(64)
	b, _ := s.Alloc(128)
	dst, _ := s.Alloc(64)
	if _, err := s.Or(dst, a, b); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := s.And(dst, a, b); err == nil {
		t.Error("length mismatch accepted by And")
	}
	if _, err := s.Or(dst); err == nil {
		t.Error("empty OR accepted")
	}
}

func TestPopcount(t *testing.T) {
	s := newSys(t)
	b, _ := s.Alloc(128)
	if _, err := s.Write(b, []uint64{0xF, 0x3}); err != nil {
		t.Fatal(err)
	}
	n, res, err := s.Popcount(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("popcount=%d want 6", n)
	}
	if res.Latency <= 0 {
		t.Error("popcount should charge a host read")
	}
	if res.Count == nil || *res.Count != 6 {
		t.Errorf("Result.Count=%v want 6", res.Count)
	}
}

func TestApplyPopcount(t *testing.T) {
	s := newSys(t)
	b, _ := s.Alloc(128)
	if _, err := s.Write(b, []uint64{0xFF, 0x1}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(OpPopcount, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == nil || *res.Count != 9 {
		t.Errorf("Apply(OpPopcount) Count=%v want 9", res.Count)
	}
	if res.Class != PlaceHostRead {
		t.Errorf("popcount class %v want %v", res.Class, PlaceHostRead)
	}
	if _, err := s.Apply(OpPopcount, b, []*BitVector{b}); err == nil {
		t.Error("popcount with a source operand accepted")
	}
	other, _ := s.Alloc(128)
	if ores, err := s.Or(b, other); err != nil {
		t.Fatal(err)
	} else if ores.Count != nil {
		t.Error("non-popcount result carries a Count")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newSys(t)
	vs, _ := s.AllocGroup(4, 64)
	dst, _ := s.Alloc(64)
	for _, v := range vs {
		if _, err := s.Write(v, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Or(dst, vs...); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Ops["intra-subarray"] != 1 {
		t.Errorf("intra ops=%d want 1", st.Ops["intra-subarray"])
	}
	if st.Ops["host-write"] != 4 {
		t.Errorf("host writes=%d want 4", st.Ops["host-write"])
	}
	if st.BusySeconds <= 0 || st.EnergyJoules <= 0 || st.Requests < 5 {
		t.Errorf("stats not accumulating: %+v", st)
	}
	// The snapshot is a copy.
	st.Ops["intra-subarray"] = 99
	if s.Stats().Ops["intra-subarray"] == 99 {
		t.Error("Stats leaked internal map")
	}
}

func TestInterSubarrayClass(t *testing.T) {
	s := newSys(t)
	// Allocate enough single-row vectors to cross a subarray boundary.
	per := memarch.Default().RowsPerSubarray - 1
	var a, b *BitVector
	for i := 0; i < per+1; i++ {
		v, err := s.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			a = v
		}
		b = v
	}
	dst, _ := s.Alloc(64)
	res, err := s.Or(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != PlaceInterSubarray {
		t.Errorf("class=%q want inter-subarray", res.Class)
	}
}

// Property: Or over random operand sets matches the word-wise reference.
func TestPropOrMatchesReference(t *testing.T) {
	s := newSys(t)
	const bits = 192
	f := func(seed int64, nSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed)%7 + 1
		vs, err := s.AllocGroup(n, bits)
		if err != nil {
			return false
		}
		want := make([]uint64, 3)
		for _, v := range vs {
			words := make([]uint64, 3)
			for i := range words {
				words[i] = rng.Uint64()
				want[i] |= words[i]
			}
			if _, err := s.Write(v, words); err != nil {
				return false
			}
		}
		dst, err := s.Alloc(bits)
		if err != nil {
			return false
		}
		if _, err := s.Or(dst, vs...); err != nil {
			return false
		}
		got, _, err := s.Read(dst)
		if err != nil {
			return false
		}
		ok := true
		for i := range want {
			ok = ok && got[i] == want[i]
		}
		for _, v := range vs {
			if err := s.Free(v); err != nil {
				return false
			}
		}
		if err := s.Free(dst); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSystemOr64(b *testing.B) {
	s := newSys(b)
	vs, err := s.AllocGroup(64, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := s.Alloc(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Or(dst, vs...); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHardwareCountersExposed(t *testing.T) {
	s := newSys(t)
	vs, err := s.AllocGroup(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if _, err := s.Write(v, []uint64{3}); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := s.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Or(dst, vs...); err != nil {
		t.Fatal(err)
	}
	hc := s.HardwareCounters()
	if hc.Activations < 4 {
		t.Errorf("activations=%d want >= 4", hc.Activations)
	}
	if hc.SenseSteps < 1 || hc.Writebacks < 5 {
		t.Errorf("counters %+v", hc)
	}
	// Data crossed the bus only for the host writes (4 x 64 bits).
	if hc.BusBits != 4*64 {
		t.Errorf("bus bits %d want 256 (host writes only)", hc.BusBits)
	}
	if hc.OpsByClass["intra-subarray"] < 1 {
		t.Errorf("class counts %v", hc.OpsByClass)
	}
	// The snapshot is a copy: its map does not alias the ledger.
	hc.OpsByClass["intra-subarray"] = 99
	if s.HardwareCounters().OpsByClass["intra-subarray"] == 99 {
		t.Error("HardwareCounters leaked internal state")
	}
}

// Every ledger counter reaches exactly one public field. With each counter
// and float total set to a distinct value, the three public snapshots
// together hold every value once and no field holds anything else, so a
// counter left out of the mapping, mapped twice, or a public field fed
// from anywhere but the ledger fails here.
func TestLedgerSnapshotCoversEveryCounter(t *testing.T) {
	s := newSys(t)
	if n, m := len(s.Stats().Ops), len(s.HardwareCounters().OpsByClass); n != 0 || m != 0 {
		t.Fatalf("fresh system reports %d op classes and %d hardware classes, want none", n, m)
	}
	want := map[float64]bool{0.5: true, 0.25: true}
	for c := range s.led.Count {
		s.led.Count[c] = int64(1000 + c)
		want[float64(1000+c)] = true
	}
	s.led.BusySeconds, s.led.EnergyJoules = 0.5, 0.25

	seen := make(map[float64][]string)
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				walk(fmt.Sprintf("%s[%v]", name, k), v.MapIndex(k))
			}
		case reflect.Int64:
			seen[float64(v.Int())] = append(seen[float64(v.Int())], name)
		case reflect.Float64:
			seen[v.Float()] = append(seen[v.Float()], name)
		default:
			t.Fatalf("%s: unexpected kind %v", name, v.Kind())
		}
	}
	walk("Stats", reflect.ValueOf(s.Stats()))
	walk("HardwareCounters", reflect.ValueOf(s.HardwareCounters()))
	walk("FaultStats", reflect.ValueOf(s.FaultStats()))
	for v, names := range seen {
		if !want[v] {
			t.Errorf("%v hold %v, not a ledger value", names, v)
		} else if len(names) != 1 {
			t.Errorf("ledger value %v reported %d times: %v", v, len(names), names)
		}
	}
	for v := range want {
		if _, ok := seen[v]; !ok {
			t.Errorf("ledger value %v reported nowhere", v)
		}
	}
}

func TestHottestRowExposed(t *testing.T) {
	s := newSys(t)
	if desc, n := s.HottestRow(); desc != "" || n != 0 {
		t.Error("fresh system has a hottest row")
	}
	v, err := s.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Write(v, []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	desc, n := s.HottestRow()
	if n != 3 || desc == "" {
		t.Errorf("HottestRow=%q/%d want 3 writes", desc, n)
	}
}

// Freed rows are reused across vector widths. A narrow host write or op
// result stored into a row that last held a full-row vector of ones must
// leave the rest of the row zero, so a full-row vector later allocated on
// the same row reads the narrow data followed by zeros — exactly as if
// every write cleared the whole row.
func TestRowReuseAcrossWidths(t *testing.T) {
	s := newSys(t)
	full := s.RowBits()
	const narrow = 8192
	ones := make([]uint64, full/64)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	alloc := func(bits int, want []memarch.RowAddr) []*BitVector {
		t.Helper()
		vs := make([]*BitVector, 2)
		for i := range vs {
			v, err := s.Alloc(bits)
			if err != nil {
				t.Fatal(err)
			}
			if want != nil && v.rows[0] != want[i] {
				t.Fatalf("%d-bit vector %d on row %v, want the freed row %v", bits, i, v.rows[0], want[i])
			}
			vs[i] = v
		}
		return vs
	}
	free := func(vs []*BitVector) {
		t.Helper()
		for _, v := range vs {
			if err := s.Free(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	wide := alloc(full, nil)
	rows := []memarch.RowAddr{wide[0].rows[0], wide[1].rows[0]}
	for _, v := range wide {
		if _, err := s.Write(v, ones); err != nil {
			t.Fatal(err)
		}
	}
	free(wide)

	// One narrow row is written by the host, the other holds an op result.
	small := alloc(narrow, rows)
	data := make([]uint64, narrow/64)
	for i := range data {
		data[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	if _, err := s.Write(small[0], data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Not(small[1], small[0]); err != nil {
		t.Fatal(err)
	}
	free(small)

	again := alloc(full, rows)
	for i, v := range again {
		got, _, err := s.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range got {
			var want uint64
			if j < len(data) {
				want = data[j]
				if i == 1 {
					want = ^want
				}
			}
			if w != want {
				t.Fatalf("row %v word %d = %#x, want %#x", rows[i], j, w, want)
			}
		}
	}
}
