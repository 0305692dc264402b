package memarch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pinatubo/internal/nvm"
)

func TestDefaultGeometryInvariants(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Load-bearing: Fig. 9's turning points depend on these two widths.
	if g.RowBits() != 1<<19 {
		t.Errorf("RowBits=%d want 2^19", g.RowBits())
	}
	if g.SenseWidthBits() != 1<<14 {
		t.Errorf("SenseWidthBits=%d want 2^14", g.SenseWidthBits())
	}
	if g.ColumnGroups() != 32 {
		t.Errorf("ColumnGroups=%d want 32 (the paper's SA sharing)", g.ColumnGroups())
	}
	if g.ChipRowBits() != 1<<16 {
		t.Errorf("ChipRowBits=%d want 2^16", g.ChipRowBits())
	}
	if g.RowWords() != g.RowBits()/64 {
		t.Errorf("RowWords inconsistent")
	}
	if g.CapacityBits() <= 0 {
		t.Errorf("capacity overflowed: %d", g.CapacityBits())
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	bad := Default()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels should fail")
	}
	bad = Default()
	bad.MatsPerSubarray = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two should fail")
	}
	bad = Default()
	bad.MuxRatio = 4096 * 2
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "MuxRatio") {
		t.Errorf("mux > row bits should fail, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := Default()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := RowAddr{
			Channel:  rng.Intn(g.Channels),
			Rank:     rng.Intn(g.RanksPerChannel),
			Bank:     rng.Intn(g.BanksPerChip),
			Subarray: rng.Intn(g.SubarraysPerBank),
			Row:      rng.Intn(g.RowsPerSubarray),
		}
		if got := g.Decode(g.Encode(a)); got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
}

func TestEncodeDense(t *testing.T) {
	// Encode must be a bijection onto [0, TotalRows): check corners.
	g := Default()
	first := RowAddr{}
	last := RowAddr{
		Channel:  g.Channels - 1,
		Rank:     g.RanksPerChannel - 1,
		Bank:     g.BanksPerChip - 1,
		Subarray: g.SubarraysPerBank - 1,
		Row:      g.RowsPerSubarray - 1,
	}
	if g.Encode(first) != 0 {
		t.Errorf("Encode(first)=%d", g.Encode(first))
	}
	if got, want := g.Encode(last), uint64(g.TotalRows()-1); got != want {
		t.Errorf("Encode(last)=%d want %d", got, want)
	}
}

func TestEncodeInvalidPanics(t *testing.T) {
	g := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of invalid address did not panic")
		}
	}()
	g.Encode(RowAddr{Channel: g.Channels})
}

func TestDecodeOutOfRangePanics(t *testing.T) {
	g := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("Decode out of range did not panic")
		}
	}()
	g.Decode(uint64(g.TotalRows()))
}

func TestPlacementPredicates(t *testing.T) {
	a := RowAddr{Channel: 1, Rank: 0, Bank: 2, Subarray: 3, Row: 4}
	sameSub := RowAddr{Channel: 1, Rank: 0, Bank: 2, Subarray: 3, Row: 9}
	sameBank := RowAddr{Channel: 1, Rank: 0, Bank: 2, Subarray: 7, Row: 4}
	sameRank := RowAddr{Channel: 1, Rank: 0, Bank: 5, Subarray: 3, Row: 4}
	otherCh := RowAddr{Channel: 2, Rank: 0, Bank: 2, Subarray: 3, Row: 4}

	if !SameSubarray(a, sameSub) || SameSubarray(a, sameBank) {
		t.Error("SameSubarray wrong")
	}
	if !SameBank(a, sameSub, sameBank) || SameBank(a, sameRank) {
		t.Error("SameBank wrong")
	}
	if !SameRank(a, sameSub, sameBank, sameRank) || SameRank(a, otherCh) {
		t.Error("SameRank wrong")
	}
}

func TestDistinctRows(t *testing.T) {
	g := Default()
	a := RowAddr{Row: 1}
	b := RowAddr{Row: 2}
	if ok, _ := DistinctRowsBuf(g, nil, []RowAddr{a, b}); !ok {
		t.Error("distinct rows reported as shared")
	}
	if ok, _ := DistinctRowsBuf(g, nil, []RowAddr{a, b, a}); ok {
		t.Error("duplicate row not detected")
	}
}

func TestRowAddrString(t *testing.T) {
	s := RowAddr{Channel: 1, Rank: 2, Bank: 3, Subarray: 4, Row: 5}.String()
	if s != "ch1.rk2.ba3.sa4.row5" {
		t.Errorf("String=%q", s)
	}
}

func newMem(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(Default(), nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemoryZeroFill(t *testing.T) {
	m := newMem(t)
	r := m.ReadRow(RowAddr{Row: 7})
	if len(r) != m.Geometry().RowWords() {
		t.Fatalf("row has %d words want %d", len(r), m.Geometry().RowWords())
	}
	for _, w := range r {
		if w != 0 {
			t.Fatal("fresh row not zero")
		}
	}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := newMem(t)
	addr := RowAddr{Channel: 3, Bank: 1, Subarray: 9, Row: 100}
	data := []uint64{1, 2, 3, 0xDEAD}
	if err := m.WriteRow(addr, data); err != nil {
		t.Fatal(err)
	}
	got := m.ReadRow(addr)
	for i, w := range data {
		if got[i] != w {
			t.Fatalf("word %d = %d want %d", i, got[i], w)
		}
	}
	for i := len(data); i < len(got); i++ {
		if got[i] != 0 {
			t.Fatal("partial write did not zero-fill")
		}
	}
}

func TestMemoryWriteShortens(t *testing.T) {
	m := newMem(t)
	addr := RowAddr{Row: 1}
	if err := m.WriteRow(addr, []uint64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(addr, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	got := m.ReadRow(addr)
	if got[0] != 5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("overwrite did not clear old tail: %v", got[:3])
	}
}

func TestMemoryWriteTooLong(t *testing.T) {
	m := newMem(t)
	big := make([]uint64, m.Geometry().RowWords()+1)
	if err := m.WriteRow(RowAddr{}, big); err == nil {
		t.Error("oversized write should fail")
	}
}

func TestMemoryReadIsCopy(t *testing.T) {
	m := newMem(t)
	addr := RowAddr{Row: 3}
	if err := m.WriteRow(addr, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	r := m.ReadRow(addr)
	r[0] = 7
	if m.ReadRow(addr)[0] != 42 {
		t.Error("ReadRow did not copy")
	}
}

func TestMemoryLazyMaterialisation(t *testing.T) {
	m := newMem(t)
	if m.MaterializedRows() != 0 {
		t.Fatal("fresh memory should have no rows")
	}
	m.ReadRow(RowAddr{Row: 1})
	if err := m.WriteRow(RowAddr{Row: 2}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if m.MaterializedRows() != 2 {
		t.Fatalf("materialized %d rows want 2", m.MaterializedRows())
	}
}

// TestPeekRowDoesNotMaterialise pins PeekRow's read of a never-written
// row: zeros, with no backing allocated, and a write to one row leaves
// every other never-written row reading zero.
func TestPeekRowDoesNotMaterialise(t *testing.T) {
	m := newMem(t)
	a, b := RowAddr{Row: 4}, RowAddr{Subarray: 2, Row: 9}
	allZero := func(words []uint64) bool {
		for _, w := range words {
			if w != 0 {
				return false
			}
		}
		return true
	}
	if got := m.PeekRow(a); len(got) != m.Geometry().RowWords() || !allZero(got) {
		t.Fatalf("never-written row peeks %d words, all zero %v", len(got), allZero(got))
	}
	if m.MaterializedRows() != 0 {
		t.Fatalf("PeekRow materialised %d rows", m.MaterializedRows())
	}
	if err := m.WriteRow(a, []uint64{^uint64(0), 5}); err != nil {
		t.Fatal(err)
	}
	if got := m.PeekRow(a); got[0] != ^uint64(0) || got[1] != 5 {
		t.Errorf("written row peeks %v", got[:2])
	}
	if !allZero(m.PeekRow(b)) {
		t.Error("a write to one row reached another never-written row")
	}
	if m.MaterializedRows() != 1 {
		t.Errorf("materialised %d rows, want 1", m.MaterializedRows())
	}
}

func TestBuffersPersistAndSize(t *testing.T) {
	m := newMem(t)
	gb := m.GlobalBuffer(0, 0, 3)
	if len(gb) != m.Geometry().RowWords() {
		t.Fatalf("global buffer %d words", len(gb))
	}
	gb[0] = 99
	if m.GlobalBuffer(0, 0, 3)[0] != 99 {
		t.Error("global buffer not persistent")
	}
	if m.GlobalBuffer(0, 0, 4)[0] != 0 {
		t.Error("buffers not distinct per bank")
	}
	io := m.IOBuffer(1, 0)
	io[1] = 7
	if m.IOBuffer(1, 0)[1] != 7 {
		t.Error("I/O buffer not persistent")
	}
}

func TestNewMemoryRejectsBadGeometry(t *testing.T) {
	g := Default()
	g.MuxRatio = 0
	if _, err := NewMemory(g, nvm.Get(nvm.PCM)); err == nil {
		t.Error("bad geometry accepted")
	}
}

// Property: Encode is injective over random valid addresses.
func TestPropEncodeInjective(t *testing.T) {
	g := Default()
	f := func(c1, r1, b1, s1, w1, c2, r2, b2, s2, w2 uint16) bool {
		a := RowAddr{
			Channel:  int(c1) % g.Channels,
			Rank:     int(r1) % g.RanksPerChannel,
			Bank:     int(b1) % g.BanksPerChip,
			Subarray: int(s1) % g.SubarraysPerBank,
			Row:      int(w1) % g.RowsPerSubarray,
		}
		b := RowAddr{
			Channel:  int(c2) % g.Channels,
			Rank:     int(r2) % g.RanksPerChannel,
			Bank:     int(b2) % g.BanksPerChip,
			Subarray: int(s2) % g.SubarraysPerBank,
			Row:      int(w2) % g.RowsPerSubarray,
		}
		if a == b {
			return g.Encode(a) == g.Encode(b)
		}
		return g.Encode(a) != g.Encode(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadRow(b *testing.B) {
	m, _ := NewMemory(Default(), nvm.Get(nvm.PCM))
	addr := RowAddr{Row: 1}
	if err := m.WriteRow(addr, []uint64{1}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m.Geometry().RowWords() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ReadRow(addr)
	}
}

// BenchmarkWriteRow writes 128, 2,048 and 8,192 words into one row of the
// default geometry. In the narrow cases the row starts out holding a
// 128-word vector and then holds what the loop writes, so its extent never
// exceeds the write and nothing beyond the written words is cleared. In
// the full cases MutableRow widens the row's extent to the whole row
// before every write, as a row that last held a full-row vector (or had
// stuck bits forced) has it, so each write also clears the rest of the
// row. The gap between the two is the row-width cost WriteRow avoids.
func BenchmarkWriteRow(b *testing.B) {
	for _, prev := range []string{"narrow", "full"} {
		for _, n := range []int{128, 2048, 8192} {
			b.Run(fmt.Sprintf("prev=%s/words=%d", prev, n), func(b *testing.B) {
				m, err := NewMemory(Default(), nvm.Get(nvm.PCM))
				if err != nil {
					b.Fatal(err)
				}
				addr := RowAddr{Row: 1}
				words := make([]uint64, n)
				for i := range words {
					words[i] = uint64(i) | 1
				}
				if err := m.WriteRow(addr, words[:128]); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if prev == "full" {
						m.MutableRow(addr)
					}
					if err := m.WriteRow(addr, words); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestWriteCountsAndHottestRow(t *testing.T) {
	m := newMem(t)
	if _, n := m.HottestRow(); n != 0 {
		t.Error("fresh memory has a hottest row")
	}
	a := RowAddr{Row: 1}
	b := RowAddr{Row: 2}
	for i := 0; i < 5; i++ {
		if err := m.WriteRow(a, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteRow(b, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if got := m.RowWriteCount(a); got != 5 {
		t.Errorf("RowWriteCount=%d want 5", got)
	}
	hot, n := m.HottestRow()
	if hot != a || n != 5 {
		t.Errorf("HottestRow=%v/%d want %v/5", hot, n, a)
	}
}
