package sense

import (
	"math/rand"
	"testing"
)

// The sense hot loops must run allocation-free in steady state: the first
// call may grow internal scratch (the analog-check cell buffer), after
// which repeated ops touch no heap. These pins are the regression gate
// for the zero-alloc pass — a new allocation in the loop fails the test.

func randRows(n, w int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, w)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64()
		}
	}
	return rows
}

func TestComputeWordsIntoZeroAllocs(t *testing.T) {
	a := newPCM(t)
	rows := randRows(3, 16, 11)
	dst := make([]uint64, 16)
	// Warm up once so the analog-check scratch reaches steady-state size.
	if err := a.ComputeWordsInto(dst, OpOR, rows); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpOR, OpAND, OpXOR, OpINV} {
		op := op
		in := rows
		if op == OpAND || op == OpXOR {
			in = rows[:2]
		}
		if op == OpINV {
			in = rows[:1]
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := a.ComputeWordsInto(dst, op, in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs/op in steady state, want 0", op, allocs)
		}
	}
}

// TestResetZeroAllocs pins the pooled-sandbox reset of the sampling
// stream: a PCG reseed in place.
func TestResetZeroAllocs(t *testing.T) {
	a := newPCM(t)
	if allocs := testing.AllocsPerRun(100, a.Reset); allocs != 0 {
		t.Errorf("Reset: %v allocs/op, want 0", allocs)
	}
}

func TestMajorityWordsIntoZeroAllocs(t *testing.T) {
	outs := randRows(3, 16, 13)
	dst := make([]uint64, 16)
	if _, err := MajorityWordsInto(dst, outs, 16*64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MajorityWordsInto(dst, outs, 16*64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op in steady state, want 0", allocs)
	}
}
