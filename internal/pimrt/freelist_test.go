package pimrt

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pinatubo/internal/memarch"
)

// freeSetModel is the reference the sorted free list is checked against:
// the allocator's free rows as an unordered set, read in ascending order
// only when rows are taken — the representation the allocator kept before
// it held them in a sorted slice.
type freeSetModel struct {
	free    map[uint64]bool
	retired map[uint64]bool
}

func (m *freeSetModel) sorted() []uint64 { return slices.Sorted(maps.Keys(m.free)) }

// group returns the n lowest usable free rows of the lowest subarray that
// holds n of them, or nil.
func (m *freeSetModel) group(n int, per, usable uint64) []uint64 {
	bySub := make(map[uint64][]uint64)
	for _, k := range m.sorted() {
		if k%per < usable {
			bySub[k/per] = append(bySub[k/per], k)
		}
	}
	for _, sub := range slices.Sorted(maps.Keys(bySub)) {
		if rows := bySub[sub]; len(rows) >= n {
			return rows[:n]
		}
	}
	return nil
}

// TestFreeListMatchesSetModel drives random AllocRows / AllocGroupRows /
// Free / Retire / Rollback sequences — double frees, frees of retired and
// reserved rows and rolled-back allocations included — against the set
// model. Every call must hand out exactly the free rows the model takes
// (ascending, and for a group the lowest subarray holding enough), any
// other rows must come fresh from the frontier, a failed call must change
// nothing, and after every step the free list must equal the model's set
// in ascending order.
func TestFreeListMatchesSetModel(t *testing.T) {
	geo := memarch.Default()
	geo.Channels, geo.RanksPerChannel, geo.BanksPerChip = 1, 1, 2
	geo.SubarraysPerBank, geo.RowsPerSubarray = 4, 8
	per := uint64(geo.RowsPerSubarray)
	for _, tail := range []int{0, 1, 3} {
		usable := per - uint64(tail)
		for seed := int64(1); seed <= 60; seed++ {
			a, err := NewAllocatorTail(geo, tail)
			if err != nil {
				t.Fatal(err)
			}
			m := &freeSetModel{free: make(map[uint64]bool), retired: make(map[uint64]bool)}
			rng := rand.New(rand.NewSource(seed))
			var seen []memarch.RowAddr // every row ever handed out
			pick := func() memarch.RowAddr { return seen[rng.Intn(len(seen))] }

			// fresh checks rows handed out past the frontier mark0: never
			// a reserved tail row, below the new frontier, ascending.
			fresh := func(rows []memarch.RowAddr, mark0 uint64) {
				t.Helper()
				for i, r := range rows {
					k := geo.Encode(r)
					if k < mark0 || k >= a.Mark() || k%per >= usable || (i > 0 && k <= geo.Encode(rows[i-1])) {
						t.Fatalf("tail %d seed %d: fresh row %v (key %d) outside [%d,%d) or out of order",
							tail, seed, r, k, mark0, a.Mark())
					}
				}
			}
			take := func(rows []memarch.RowAddr, want []uint64, mark0 uint64, op string) {
				t.Helper()
				for i, k := range want {
					if got := geo.Encode(rows[i]); got != k {
						t.Fatalf("tail %d seed %d: %s row %d = key %d, want free row %d (model %v)",
							tail, seed, op, i, got, k, want)
					}
					delete(m.free, k)
				}
				fresh(rows[len(want):], mark0)
				seen = append(seen, rows...)
			}
			allocRows := func(n int) []memarch.RowAddr {
				t.Helper()
				mark0, free0 := a.Mark(), slices.Clone(a.free)
				rows, err := a.AllocRows(n)
				if err != nil {
					if a.Mark() != mark0 || !slices.Equal(a.free, free0) {
						t.Fatalf("tail %d seed %d: failed AllocRows(%d) changed the allocator", tail, seed, n)
					}
					return nil
				}
				want := m.sorted()
				take(rows, want[:min(n, len(want))], mark0, "AllocRows")
				return rows
			}
			allocGroup := func(n int) []memarch.RowAddr {
				t.Helper()
				mark0, free0 := a.Mark(), slices.Clone(a.free)
				want := m.group(n, per, usable)
				rows, err := a.AllocGroupRows(n)
				if err != nil {
					if want != nil || a.Mark() != mark0 || !slices.Equal(a.free, free0) {
						t.Fatalf("tail %d seed %d: AllocGroupRows(%d) failed (%v) with model group %v, or changed the allocator",
							tail, seed, n, err, want)
					}
					return nil
				}
				take(rows, want, mark0, "AllocGroupRows")
				if want == nil {
					for _, r := range rows {
						if !memarch.SameSubarray(r, rows[0]) {
							t.Fatalf("tail %d seed %d: fresh group %v spans subarrays", tail, seed, rows)
						}
					}
				}
				return rows
			}
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op < 3:
					allocRows(1 + rng.Intn(6))
				case op < 5:
					allocGroup(1 + rng.Intn(int(usable)))
				case op < 8 && len(seen) > 0:
					// Live, already-free and retired rows alike, and now and
					// then any row at all: a reserved tail row, or one past
					// the frontier.
					rows := make([]memarch.RowAddr, 1+rng.Intn(4))
					for i := range rows {
						rows[i] = pick()
						if rng.Intn(4) == 0 {
							rows[i] = geo.Decode(uint64(rng.Intn(geo.TotalRows())))
						}
					}
					a.Free(rows)
					for _, r := range rows {
						if k := geo.Encode(r); !m.retired[k] {
							m.free[k] = true
						}
					}
				case op == 8 && len(seen) > 0:
					r := pick()
					a.Retire(r)
					m.retired[geo.Encode(r)] = true
					delete(m.free, geo.Encode(r))
				case op == 9:
					// An all-or-nothing multi-part allocation that gives up.
					start := a.Mark()
					var taken []memarch.RowAddr
					for i := rng.Intn(3); i >= 0; i-- {
						if rng.Intn(2) == 0 {
							taken = append(taken, allocRows(1+rng.Intn(3))...)
						} else {
							taken = append(taken, allocGroup(1+rng.Intn(3))...)
						}
					}
					a.Rollback(start, taken)
					for _, r := range taken {
						if k := geo.Encode(r); k < start {
							m.free[k] = true
						}
					}
				}
				if want := m.sorted(); !slices.Equal(a.free, want) {
					t.Fatalf("tail %d seed %d step %d: free list %v, model %v", tail, seed, step, a.free, want)
				}
				if got, want := a.AllocatedRows(), int(a.Mark())-len(m.free); got != want {
					t.Fatalf("tail %d seed %d step %d: AllocatedRows %d, want %d", tail, seed, step, got, want)
				}
			}
		}
	}
}

// TestAllocRowsFromFreeListAllocs pins that an AllocRows served from the
// free list allocates only its result slice: taking the list's prefix and
// putting rows back within its capacity allocate nothing.
func TestAllocRowsFromFreeListAllocs(t *testing.T) {
	a := newAlloc(t, 1)
	rows, err := a.AllocRows(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(rows)
	mark := a.Mark()
	got := testing.AllocsPerRun(100, func() {
		rows, err := a.AllocRows(8)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(rows)
	})
	if a.Mark() != mark {
		t.Fatalf("the frontier moved from %d to %d: AllocRows was not served from the free list", mark, a.Mark())
	}
	t.Logf("AllocRows(8) from the free list: %.1f allocs", got)
	if got != 1 {
		t.Errorf("AllocRows(8) from the free list allocates %.1f per call, want 1 (its result slice)", got)
	}
}
