package pimrt

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pinatubo/internal/bitvec"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

func newAlloc(t *testing.T, tail int) *Allocator {
	t.Helper()
	a, err := NewAllocatorTail(memarch.Default(), tail)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocSequentialSharesSubarray(t *testing.T) {
	a := newAlloc(t, 1)
	rows, err := a.AllocRows(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !memarch.SameSubarray(rows...) {
		t.Error("first 100 sequential rows should share a subarray")
	}
	if ok, _ := memarch.DistinctRowsBuf(memarch.Default(), nil, rows); !ok {
		t.Error("rows not distinct")
	}
}

func TestAllocNeverHandsOutScratch(t *testing.T) {
	a := newAlloc(t, 1)
	geo := memarch.Default()
	rows, err := a.AllocRows(3 * geo.RowsPerSubarray)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Row == geo.RowsPerSubarray-1 {
			t.Fatalf("scratch row %v allocated", r)
		}
	}
}

func TestAllocWithoutScratchUsesAllRows(t *testing.T) {
	a := newAlloc(t, 0)
	geo := memarch.Default()
	rows, err := a.AllocRows(geo.RowsPerSubarray)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Row != geo.RowsPerSubarray-1 {
		t.Error("non-reserving allocator should use the last row")
	}
}

func TestAllocGroupAffinity(t *testing.T) {
	a := newAlloc(t, 1)
	// Burn part of a subarray so a big group must skip to the next.
	if _, err := a.AllocRows(1000); err != nil {
		t.Fatal(err)
	}
	group, err := a.AllocGroupRows(128)
	if err != nil {
		t.Fatal(err)
	}
	if !memarch.SameSubarray(group...) {
		t.Error("group does not share a subarray")
	}
}

// TestAllocGroupReusesFreedRows pins the group allocator's reuse order:
// the lowest subarray with enough free rows gives its lowest ones, retired
// rows are never handed back, and a group no subarray's free rows can
// hold still comes from the frontier.
func TestAllocGroupReusesFreedRows(t *testing.T) {
	a := newAlloc(t, 1)
	per := memarch.Default().RowsPerSubarray
	usable := per - 1
	sub0, err := a.AllocGroupRows(usable)
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := a.AllocGroupRows(usable)
	if err != nil {
		t.Fatal(err)
	}
	// Subarray 1 frees three rows, subarray 0 two (one of them retired).
	a.Free([]memarch.RowAddr{sub1[9], sub1[4], sub1[7], sub0[5], sub0[3]})
	a.Retire(sub0[3])
	got, err := a.AllocGroupRows(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []memarch.RowAddr{sub1[4], sub1[7]}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("group of 2 = %v, want %v (subarray 0 holds one usable free row)", got, want)
	}
	got, err = a.AllocGroupRows(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != sub0[5] {
		t.Errorf("group of 1 = %v, want the lowest subarray's free row %v", got[0], sub0[5])
	}
	got, err = a.AllocGroupRows(2)
	if err != nil {
		t.Fatal(err)
	}
	if memarch.SameSubarray(got[0], sub0[0]) || memarch.SameSubarray(got[0], sub1[0]) {
		t.Errorf("group of 2 = %v, want fresh rows past the frontier", got)
	}
	if !slices.Contains(a.free, memarch.Default().Encode(sub1[9])) {
		t.Error("the unused free row of subarray 1 left the free list")
	}
}

func TestAllocGroupTooBig(t *testing.T) {
	a := newAlloc(t, 1)
	if _, err := a.AllocGroupRows(memarch.Default().RowsPerSubarray); err == nil {
		t.Error("group equal to full subarray should fail with scratch reserved")
	}
}

func TestAllocErrors(t *testing.T) {
	a := newAlloc(t, 1)
	if _, err := a.AllocRows(0); err == nil {
		t.Error("zero alloc accepted")
	}
	if _, err := a.AllocGroupRows(-1); err == nil {
		t.Error("negative group accepted")
	}
	bad := memarch.Default()
	bad.Channels = 0
	if _, err := NewAllocatorTail(bad, 1); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := newAlloc(t, 1)
	rows, err := a.AllocRows(10)
	if err != nil {
		t.Fatal(err)
	}
	live := a.AllocatedRows()
	a.Free(rows[:5])
	if a.AllocatedRows() != live-5 {
		t.Errorf("AllocatedRows=%d want %d", a.AllocatedRows(), live-5)
	}
	reused, err := a.AllocRows(5)
	if err != nil {
		t.Fatal(err)
	}
	// Freed rows come back first, in ascending order.
	for i, r := range reused {
		if r != rows[i] {
			t.Errorf("reuse[%d]=%v want %v", i, r, rows[i])
		}
	}
}

func TestOutOfMemory(t *testing.T) {
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
	if _, err := a.AllocRows(3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocRows(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err=%v want ErrOutOfMemory", err)
	}
}

func TestGroupBySubarray(t *testing.T) {
	rows := []memarch.RowAddr{
		{Bank: 0, Subarray: 0, Row: 1},
		{Bank: 0, Subarray: 1, Row: 1},
		{Bank: 0, Subarray: 0, Row: 2},
		{Bank: 1, Subarray: 0, Row: 1},
	}
	groups := GroupBySubarray(rows)
	if len(groups) != 3 {
		t.Fatalf("got %d groups want 3", len(groups))
	}
	if len(groups[0]) != 2 || groups[0][0].Row != 1 || groups[0][1].Row != 2 {
		t.Errorf("group 0 wrong: %v", groups[0])
	}
}

func TestPlacementOf(t *testing.T) {
	intra := []memarch.RowAddr{{Row: 0}, {Row: 1}}
	if p, err := PlacementOf(intra); err != nil || p != workload.PlaceIntra {
		t.Errorf("intra: %v %v", p, err)
	}
	interSub := []memarch.RowAddr{{Subarray: 0}, {Subarray: 1}}
	if p, err := PlacementOf(interSub); err != nil || p != workload.PlaceInterSub {
		t.Errorf("inter-sub: %v %v", p, err)
	}
	interBank := []memarch.RowAddr{{Bank: 0}, {Bank: 1}}
	if p, err := PlacementOf(interBank); err != nil || p != workload.PlaceInterBank {
		t.Errorf("inter-bank: %v %v", p, err)
	}
	cross := []memarch.RowAddr{{Channel: 0}, {Channel: 1}}
	if _, err := PlacementOf(cross); !errors.Is(err, pim.ErrCrossRank) {
		t.Errorf("cross: %v", err)
	}
}

func TestSpecForOR(t *testing.T) {
	rows := []memarch.RowAddr{
		{Subarray: 0, Row: 0}, {Subarray: 0, Row: 1}, {Subarray: 1, Row: 0},
	}
	spec, err := SpecForOR(rows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != sense.OpOR || spec.Operands != 3 || spec.Bits != 4096 {
		t.Errorf("spec %+v", spec)
	}
	if spec.Placement != workload.PlaceInterSub {
		t.Errorf("placement %v", spec.Placement)
	}
	if len(spec.Groups) != 2 || spec.Groups[0] != 2 || spec.Groups[1] != 1 {
		t.Errorf("groups %v", spec.Groups)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("spec invalid: %v", err)
	}
	// Pure intra: no groups attached.
	intra, err := SpecForOR(rows[:2], 4096)
	if err != nil {
		t.Fatal(err)
	}
	if intra.Groups != nil || intra.Placement != workload.PlaceIntra {
		t.Errorf("intra spec %+v", intra)
	}
	if _, err := SpecForOR(rows[:1], 64); err == nil {
		t.Error("1-row OR accepted")
	}
}

// newSched builds a scheduler over a fresh PCM memory.
func newSched(t *testing.T) (*Scheduler, *pim.Controller) {
	t.Helper()
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Scheduler{Ctl: ctl}, ctl
}

func TestSchedulerORSingleSubarray(t *testing.T) {
	s, ctl := newSched(t)
	rng := rand.New(rand.NewSource(1))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	rows := make([]memarch.RowAddr, 10)
	want := make([]uint64, w)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
		words := make([]uint64, w)
		for j := range words {
			words[j] = rng.Uint64()
			want[j] |= words[j]
		}
		if err := ctl.Memory().WriteRow(rows[i], words); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 3, Row: 500}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Errorf("requests=%d want 1 (10-row one-step OR)", res.Requests)
	}
	got := ctl.Memory().ReadRow(dst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("word %d mismatch", j)
		}
	}
}

func TestSchedulerORAcrossSubarrays(t *testing.T) {
	s, ctl := newSched(t)
	rng := rand.New(rand.NewSource(2))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	var rows []memarch.RowAddr
	want := make([]uint64, w)
	// 3 subarrays × 4 rows each.
	for sub := 0; sub < 3; sub++ {
		for r := 0; r < 4; r++ {
			addr := memarch.RowAddr{Subarray: sub, Row: r}
			rows = append(rows, addr)
			words := make([]uint64, w)
			for j := range words {
				words[j] = rng.Uint64()
				want[j] |= words[j]
			}
			if err := ctl.Memory().WriteRow(addr, words); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst := memarch.RowAddr{Subarray: 10, Row: 0}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	// 3 intra collapses + 1 inter combine.
	if res.Requests != 4 {
		t.Errorf("requests=%d want 4", res.Requests)
	}
	got := ctl.Memory().ReadRow(dst)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("word %d mismatch", j)
		}
	}
}

func TestSchedulerORChainsBeyondDepth(t *testing.T) {
	s, ctl := newSched(t)
	const bits = 64
	rows := make([]memarch.RowAddr, 200) // beyond the 128-row depth
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 0, Row: i}
		if err := ctl.Memory().WriteRow(rows[i], []uint64{1 << (i % 60)}); err != nil {
			t.Fatal(err)
		}
	}
	dst := memarch.RowAddr{Subarray: 0, Row: 900}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Errorf("requests=%d want 2 (128 + 72+acc)", res.Requests)
	}
	want := uint64(0)
	for i := range rows {
		want |= 1 << (i % 60)
	}
	if got := ctl.Memory().ReadRow(dst)[0]; got != want {
		t.Errorf("result %x want %x", got, want)
	}
}

func TestSchedulerSingleRowCopies(t *testing.T) {
	s, ctl := newSched(t)
	src := memarch.RowAddr{Subarray: 1, Row: 7}
	if err := ctl.Memory().WriteRow(src, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	dst := memarch.RowAddr{Subarray: 2, Row: 9}
	res, err := s.Execute(sense.OpOR, []memarch.RowAddr{src}, 64, dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || ctl.Memory().ReadRow(dst)[0] != 42 {
		t.Error("single-row OR should copy")
	}
	if _, err := s.Execute(sense.OpOR, nil, 64, dst); err == nil {
		t.Error("empty OR accepted")
	}
}

func TestMapperRowOf(t *testing.T) {
	m, err := NewMapper(memarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	geo := memarch.Default()
	usable := geo.RowsPerSubarray - 1
	// IDs within one subarray's usable rows stay in that subarray.
	a := m.RowOf(0)
	b := m.RowOf(usable - 1)
	if !memarch.SameSubarray(a, b) {
		t.Error("first usable block spans subarrays")
	}
	// The scratch row is never mapped.
	for _, id := range []int{0, usable - 1, usable, 5 * usable} {
		if r := m.RowOf(id); r.Row == geo.RowsPerSubarray-1 {
			t.Errorf("id %d mapped to the scratch row", id)
		}
	}
	// The next ID crosses into the next subarray.
	c := m.RowOf(usable)
	if memarch.SameSubarray(a, c) {
		t.Error("id past the usable block did not advance subarrays")
	}
	// Injective over a window.
	seen := map[uint64]bool{}
	for id := 0; id < 4*usable; id++ {
		k := geo.Encode(m.RowOf(id))
		if seen[k] {
			t.Fatalf("id %d collides", id)
		}
		seen[k] = true
	}
}

func TestMapperPanics(t *testing.T) {
	m, err := NewMapper(memarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 1 << 60} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowOf(%d) did not panic", bad)
				}
			}()
			m.RowOf(bad)
		}()
	}
	badGeo := memarch.Default()
	badGeo.Channels = 3
	if _, err := NewMapper(badGeo); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestMapperSpecForIDs(t *testing.T) {
	m, err := NewMapper(memarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	usable := memarch.Default().RowsPerSubarray - 1
	// Two IDs in one subarray + one in the next: 2 groups, inter-sub.
	spec, err := m.SpecForIDs([]int{0, 1, usable}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Placement != workload.PlaceInterSub || len(spec.Groups) != 2 {
		t.Errorf("spec %+v", spec)
	}
	if spec.Groups[0] != 2 || spec.Groups[1] != 1 {
		t.Errorf("groups %v", spec.Groups)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplificationOfChaining(t *testing.T) {
	// PCM endurance is finite; the scheduler's one-step multi-row OR
	// programs the destination once, while a 2-row chain programs an
	// accumulator row on every step — write amplification the endurance
	// counters make visible.
	s, ctl := newSched(t)
	mem := ctl.Memory()
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 4, Row: i}
	}
	dst := memarch.RowAddr{Subarray: 4, Row: 900}

	if _, err := s.Execute(sense.OpOR, rows, 64, dst); err != nil {
		t.Fatal(err)
	}
	oneStepWrites := mem.RowWriteCount(dst)

	// Manual 2-row chain over the same operands.
	acc := memarch.RowAddr{Subarray: 4, Row: 901}
	if _, err := ctl.Execute(sense.OpOR, rows[:2], 64, &acc); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[2:] {
		if _, err := ctl.Execute(sense.OpOR, []memarch.RowAddr{acc, r}, 64, &acc); err != nil {
			t.Fatal(err)
		}
	}
	chainWrites := mem.RowWriteCount(acc)

	if oneStepWrites != 1 {
		t.Errorf("one-step OR wrote %d rows, want 1", oneStepWrites)
	}
	if chainWrites != 127 {
		t.Errorf("2-row chain wrote %d rows, want 127", chainWrites)
	}
	hot, n := mem.HottestRow()
	if hot != acc || n != 127 {
		t.Errorf("hottest row %v/%d, want the chain accumulator %v/127", hot, n, acc)
	}
}
