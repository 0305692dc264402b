package bitvec

import (
	"math/rand"
	"testing"
)

// The raw-word helpers (PopcountWords, EqualWords, DiffCount) exist so
// the system hot path can work on row buffers whose tail words carry
// garbage past nbits — no Vector wrapping, no allocation. These tests
// pin both properties: tail garbage is ignored, and the helpers are
// allocation-free.

// garble copies words and scribbles junk into the bits past nbits.
func garble(words []uint64, nbits int) []uint64 {
	out := append([]uint64(nil), words...)
	if idx, mask, ok := tailWordMask(nbits); ok {
		out[idx] |= ^mask
	}
	return out
}

func randVec(nbits int, seed int64) *Vector {
	rng := rand.New(rand.NewSource(seed))
	v := New(nbits)
	for i := 0; i < v.WordCount(); i++ {
		v.SetWord(i, rng.Uint64())
	}
	return v
}

func TestPopcountWordsIgnoresTail(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300, 4096} {
		v := randVec(nbits, int64(nbits))
		dirty := garble(v.Words(), nbits)
		if got, want := PopcountWords(dirty, nbits), v.Popcount(); got != want {
			t.Errorf("nbits=%d: PopcountWords=%d want %d", nbits, got, want)
		}
	}
}

func TestEqualWordsIgnoresTail(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300} {
		v := randVec(nbits, int64(nbits))
		dirty := garble(v.Words(), nbits)
		if !EqualWords(v.Words(), dirty, nbits) {
			t.Errorf("nbits=%d: tail garbage broke EqualWords", nbits)
		}
		if nbits > 0 {
			flipped := append([]uint64(nil), dirty...)
			flipped[0] ^= 1
			if EqualWords(v.Words(), flipped, nbits) {
				t.Errorf("nbits=%d: EqualWords missed an in-range flip", nbits)
			}
		}
	}
}

// TestEqualWordsMatchesWordLoop checks EqualWords against the per-word
// masked loop it replaced, at every width from 1 to 200 bits: the padding
// past nbits always differs between the two slices, and every other trial
// also flips one random bit anywhere in the covered words, in range or in
// the padding.
func TestEqualWordsMatchesWordLoop(t *testing.T) {
	loop := func(a, b []uint64, nbits int) bool {
		w := WordsFor(nbits)
		tail := uint(nbits % 64)
		for i := 0; i < w; i++ {
			mask := ^uint64(0)
			if i == w-1 && tail != 0 {
				mask = 1<<tail - 1
			}
			if (a[i]^b[i])&mask != 0 {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(11))
	for nbits := 1; nbits <= 200; nbits++ {
		w := WordsFor(nbits)
		for trial := 0; trial < 50; trial++ {
			a := make([]uint64, w)
			for i := range a {
				a[i] = rng.Uint64()
			}
			b := append([]uint64(nil), a...)
			if pad := nbits % 64; pad != 0 {
				b[w-1] ^= (rng.Uint64() | 1<<63) &^ (1<<pad - 1)
			}
			if trial%2 == 1 {
				pos := rng.Intn(w * 64)
				b[pos/64] ^= 1 << (pos % 64)
			}
			if got, want := EqualWords(a, b, nbits), loop(a, b, nbits); got != want {
				t.Fatalf("nbits=%d trial %d: EqualWords=%v, word loop %v (a=%x b=%x)", nbits, trial, got, want, a, b)
			}
		}
	}
}

func TestDiffCountMatchesXorPopcount(t *testing.T) {
	for _, nbits := range []int{1, 63, 64, 65, 300, 4096} {
		a := randVec(nbits, int64(nbits))
		b := randVec(nbits, int64(nbits)+1000)
		ref := New(nbits)
		ref.Xor(a, b)
		want := ref.Popcount()
		got := DiffCount(garble(a.Words(), nbits), garble(b.Words(), nbits), nbits)
		if got != want {
			t.Errorf("nbits=%d: DiffCount=%d want %d", nbits, got, want)
		}
		if d := DiffCount(garble(a.Words(), nbits), a.Words(), nbits); d != 0 {
			t.Errorf("nbits=%d: DiffCount of identical payloads = %d", nbits, d)
		}
	}
}

func TestWordHelpersZeroAllocs(t *testing.T) {
	a := randVec(4096, 1).Words()
	b := randVec(4096, 2).Words()
	allocs := testing.AllocsPerRun(100, func() {
		_ = PopcountWords(a, 4096)
		_ = EqualWords(a, b, 4096)
		_ = DiffCount(a, b, 4096)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op across the word helpers, want 0", allocs)
	}
}
