package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLengthAndZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len=%d want %d", v.Len(), n)
		}
		if v.Popcount() != 0 {
			t.Fatalf("new vector of %d bits not zero", n)
		}
		if got, want := v.WordCount(), WordsFor(n); got != want {
			t.Fatalf("WordCount=%d want %d", got, want)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestWordsFor(t *testing.T) {
	cases := []struct{ bits, words int }{
		{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {-5, 0},
	}
	for _, c := range cases {
		if got := WordsFor(c.bits); got != c.words {
			t.Errorf("WordsFor(%d)=%d want %d", c.bits, got, c.words)
		}
	}
}

func TestSetGetClearFlip(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Popcount() != len(idx) {
		t.Fatalf("popcount=%d want %d", v.Popcount(), len(idx))
	}
	for _, i := range idx {
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
	v.Flip(64)
	if !v.Get(64) {
		t.Fatal("flip 0->1 failed")
	}
	v.Flip(64)
	if v.Get(64) {
		t.Fatal("flip 1->0 failed")
	}
}

func TestIndexPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestTailInvariantSetAllNot(t *testing.T) {
	v := New(70) // 6 tail bits in word 1
	v.SetAll()
	if v.Popcount() != 70 {
		t.Fatalf("SetAll popcount=%d want 70", v.Popcount())
	}
	w := New(70)
	w.Not(v) // all zero
	if w.Any() {
		t.Fatal("NOT of all-ones should be empty")
	}
	w.Not(w)
	if w.Popcount() != 70 {
		t.Fatalf("NOT of empty should be full, got %d", w.Popcount())
	}
}

func TestFromWordsClearsTail(t *testing.T) {
	v := FromWords(4, []uint64{^uint64(0)})
	if v.Popcount() != 4 {
		t.Fatalf("popcount=%d want 4", v.Popcount())
	}
	v.SetWord(0, ^uint64(0))
	if v.Popcount() != 4 {
		t.Fatalf("SetWord tail not cleared: popcount=%d", v.Popcount())
	}
}

func TestBinaryOps(t *testing.T) {
	a := FromWords(128, []uint64{0xF0F0, 0xAAAA})
	b := FromWords(128, []uint64{0x0FF0, 0x5555})
	and, or, xor, andnot := New(128), New(128), New(128), New(128)
	and.And(a, b)
	or.Or(a, b)
	xor.Xor(a, b)
	andnot.AndNot(a, b)
	if and.Words()[0] != 0x00F0 || and.Words()[1] != 0 {
		t.Errorf("AND wrong: %x %x", and.Words()[0], and.Words()[1])
	}
	if or.Words()[0] != 0xFFF0 || or.Words()[1] != 0xFFFF {
		t.Errorf("OR wrong: %x %x", or.Words()[0], or.Words()[1])
	}
	if xor.Words()[0] != 0xFF00 || xor.Words()[1] != 0xFFFF {
		t.Errorf("XOR wrong: %x %x", xor.Words()[0], xor.Words()[1])
	}
	if andnot.Words()[0] != 0xF000 || andnot.Words()[1] != 0xAAAA {
		t.Errorf("ANDNOT wrong: %x %x", andnot.Words()[0], andnot.Words()[1])
	}
}

func TestOpsAliasing(t *testing.T) {
	a := FromWords(64, []uint64{0xF0F0})
	b := FromWords(64, []uint64{0x0FF0})
	a.And(a, b)
	if a.Words()[0] != 0x00F0 {
		t.Errorf("aliased AND wrong: %x", a.Words()[0])
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(64), New(65)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(64).And(a, b)
}

func TestOrAllAndAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, k = 300, 7
	ops := make([]*Vector, k)
	for i := range ops {
		ops[i] = randomVector(rng, n)
	}
	or, and := New(n), New(n)
	or.OrAll(ops...)
	and.AndAll(ops...)
	for i := 0; i < n; i++ {
		wantOr, wantAnd := false, true
		for _, o := range ops {
			wantOr = wantOr || o.Get(i)
			wantAnd = wantAnd && o.Get(i)
		}
		if or.Get(i) != wantOr {
			t.Fatalf("OrAll bit %d = %v want %v", i, or.Get(i), wantOr)
		}
		if and.Get(i) != wantAnd {
			t.Fatalf("AndAll bit %d = %v want %v", i, and.Get(i), wantAnd)
		}
	}
}

func TestOrAllEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OrAll() did not panic")
		}
	}()
	New(8).OrAll()
}

func TestAndAllEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AndAll() did not panic")
		}
	}()
	New(8).AndAll()
}

func TestForEachSet(t *testing.T) {
	v := New(300)
	want := []int{0, 5, 63, 64, 128, 299}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randomVector(rng, 777)
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal")
	}
	w.Flip(500)
	if v.Equal(w) {
		t.Fatal("flip should break equality")
	}
	if v.Equal(New(778)) {
		t.Fatal("different lengths should not be equal")
	}
}

func TestCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomVector(rng, 100)
	w := New(100)
	w.CopyFrom(v)
	if !w.Equal(v) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestAnyNone(t *testing.T) {
	v := New(100)
	if v.Any() {
		t.Fatal("empty vector reports a set bit")
	}
	v.Set(99)
	if !v.Any() {
		t.Fatal("nonempty vector reports no set bit")
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(0)
	v.Set(2)
	if s := v.String(); s != "1010" {
		t.Fatalf("String=%q want 1010", s)
	}
	long := New(200)
	if s := long.String(); len(s) < 128 {
		t.Fatalf("long String too short: %q", s)
	}
}

// --- property-based tests ---

func randomVector(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.SetWord(i, rng.Uint64())
	}
	return v
}

// prop: De Morgan — NOT(a AND b) == NOT a OR NOT b.
func TestPropDeMorgan(t *testing.T) {
	f := func(aw, bw []uint64, nSeed uint8) bool {
		n := int(nSeed)%512 + 1
		a := FromWords(n, aw)
		b := FromWords(n, bw)
		lhs, rhs, na, nb, ab := New(n), New(n), New(n), New(n), New(n)
		ab.And(a, b)
		lhs.Not(ab)
		na.Not(a)
		nb.Not(b)
		rhs.Or(na, nb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// prop: XOR is its own inverse — (a XOR b) XOR b == a.
func TestPropXorInvolution(t *testing.T) {
	f := func(aw, bw []uint64, nSeed uint8) bool {
		n := int(nSeed)%512 + 1
		a := FromWords(n, aw)
		b := FromWords(n, bw)
		x := New(n)
		x.Xor(a, b)
		x.Xor(x, b)
		return x.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// prop: OrAll equals left fold of Or; AndAll equals left fold of And.
func TestPropFoldEquivalence(t *testing.T) {
	f := func(seed int64, kSeed, nSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kSeed)%6 + 2
		n := int(nSeed)%300 + 1
		ops := make([]*Vector, k)
		for i := range ops {
			ops[i] = randomVector(rng, n)
		}
		orAll, andAll := New(n), New(n)
		orAll.OrAll(ops...)
		andAll.AndAll(ops...)
		foldOr, foldAnd := ops[0].Clone(), ops[0].Clone()
		for _, o := range ops[1:] {
			foldOr.Or(foldOr, o)
			foldAnd.And(foldAnd, o)
		}
		return orAll.Equal(foldOr) && andAll.Equal(foldAnd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: popcount(a) + popcount(b) == popcount(a AND b) + popcount(a OR b).
func TestPropInclusionExclusion(t *testing.T) {
	f := func(aw, bw []uint64, nSeed uint16) bool {
		n := int(nSeed)%2048 + 1
		a := FromWords(n, aw)
		b := FromWords(n, bw)
		and, or := New(n), New(n)
		and.And(a, b)
		or.Or(a, b)
		return a.Popcount()+b.Popcount() == and.Popcount()+or.Popcount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOr64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomVector(rng, 1<<16)
	y := randomVector(rng, 1<<16)
	dst := New(1 << 16)
	b.SetBytes(1 << 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Or(x, y)
	}
}

func BenchmarkOrAll128x64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]*Vector, 128)
	for i := range ops {
		ops[i] = randomVector(rng, 1<<16)
	}
	dst := New(1 << 16)
	b.SetBytes(128 << 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.OrAll(ops...)
	}
}

func BenchmarkPopcount1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := randomVector(rng, 1<<20)
	b.SetBytes(1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Popcount()
	}
}
