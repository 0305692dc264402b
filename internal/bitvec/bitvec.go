// Package bitvec provides a dense, word-parallel bit-vector used throughout
// the Pinatubo simulator: applications build bitmaps with it, and the PIM
// functional model uses it as the golden reference for every in-memory
// bitwise operation.
//
// A Vector has a fixed length in bits. All bulk operations require operands
// of equal length; bits past the logical length inside the last word are
// kept zero at all times (the "tail invariant"), so popcounts and equality
// never see garbage.
package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const (
	// WordBits is the number of bits per storage word.
	WordBits = 64
	wordMask = WordBits - 1
	wordLog  = 6
)

// Vector is a fixed-length dense bit vector.
type Vector struct {
	nbits int
	words []uint64
}

// WordsFor returns the number of 64-bit words needed to store nbits bits.
func WordsFor(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return (nbits + wordMask) >> wordLog
}

// New returns a zeroed Vector of nbits bits. It panics if nbits is negative.
func New(nbits int) *Vector {
	if nbits < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", nbits))
	}
	return &Vector{nbits: nbits, words: make([]uint64, WordsFor(nbits))}
}

// FromWords builds a Vector of nbits bits from the given words. The slice is
// copied; surplus tail bits are cleared to preserve the tail invariant.
func FromWords(nbits int, words []uint64) *Vector {
	v := New(nbits)
	copy(v.words, words)
	v.clearTail()
	return v
}

// tailWordMask returns the index of the word holding bit nbits-1 and the
// mask of the valid bits inside it, or ok=false when nbits lands exactly
// on a word boundary (no partial tail word).
func tailWordMask(nbits int) (idx int, mask uint64, ok bool) {
	if r := nbits & wordMask; r != 0 {
		return nbits >> wordLog, (uint64(1) << uint(r)) - 1, true
	}
	return 0, 0, false
}

// PopcountWords counts the set bits among the first nbits bits of a raw
// word slice, masking any garbage in the final partial word. It is the
// zero-alloc form of FromWords(nbits, words).Popcount() for hot paths
// that hold row words rather than Vectors (stored rows keep tail garbage;
// this never reads it).
func PopcountWords(words []uint64, nbits int) int {
	w := WordsFor(nbits)
	if w > len(words) {
		w = len(words)
	}
	n := 0
	for _, word := range words[:w] {
		n += bits.OnesCount64(word)
	}
	if idx, mask, ok := tailWordMask(nbits); ok && idx < w {
		n -= bits.OnesCount64(words[idx] &^ mask)
	}
	return n
}

// EqualWords reports whether the first nbits bits of two raw word slices
// agree, ignoring tail garbage past nbits. Both slices must cover nbits
// bits. Zero-alloc counterpart of comparing FromWords vectors. The whole
// words compare as slices, and only a partial last word is masked.
func EqualWords(a, b []uint64, nbits int) bool {
	idx, mask, partial := tailWordMask(nbits)
	if !partial {
		w := WordsFor(nbits)
		return slices.Equal(a[:w], b[:w])
	}
	return slices.Equal(a[:idx], b[:idx]) && (a[idx]^b[idx])&mask == 0
}

// DiffCount counts the bit positions within the first nbits bits where
// two raw word slices disagree — the zero-alloc XOR-fold the verified
// read path uses to count corrected bits.
func DiffCount(a, b []uint64, nbits int) int {
	w := WordsFor(nbits)
	idx, mask, partial := tailWordMask(nbits)
	n := 0
	for i := 0; i < w; i++ {
		x := a[i] ^ b[i]
		if partial && i == idx {
			x &= mask
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// Len returns the logical length of the vector in bits.
func (v *Vector) Len() int { return v.nbits }

// Words returns the backing words. The last word's bits beyond Len() are
// guaranteed zero. The caller must not resize the slice; mutating bits is
// allowed but must preserve the tail invariant (prefer SetWord).
func (v *Vector) Words() []uint64 { return v.words }

// WordCount returns the number of backing words.
func (v *Vector) WordCount() int { return len(v.words) }

// SetWord stores w at word index i, clearing tail bits if i is the last word.
func (v *Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	if i == len(v.words)-1 {
		v.clearTail()
	}
}

func (v *Vector) clearTail() {
	if tail := uint(v.nbits) & wordMask; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << tail) - 1
	}
}

// checkIndex panics if i is outside [0, nbits) — the API's index contract,
// like a slice bounds check.
func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.nbits {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.nbits))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] |= 1 << (uint(i) & wordMask)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] &^= 1 << (uint(i) & wordMask)
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.checkIndex(i)
	v.words[i>>wordLog] ^= 1 << (uint(i) & wordMask)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.checkIndex(i)
	return v.words[i>>wordLog]&(1<<(uint(i)&wordMask)) != 0
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
}

// Reset clears every bit to 0.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := New(v.nbits)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with src. Lengths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

// mustMatch panics on an operand length mismatch — a caller bug, never a
// data condition.
func (v *Vector) mustMatch(o *Vector) {
	if v.nbits != o.nbits {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.nbits, o.nbits))
	}
}

// And stores a AND b into v. All three must have equal length; v may alias
// either operand.
func (v *Vector) And(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Or stores a OR b into v.
func (v *Vector) Or(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// Xor stores a XOR b into v.
func (v *Vector) Xor(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i]
	}
}

// AndNot stores a AND NOT b into v.
func (v *Vector) AndNot(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// Not stores NOT a into v (within the logical length).
func (v *Vector) Not(a *Vector) {
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.clearTail()
}

// OrAll stores the OR of all operands into v. It panics if operands is
// empty. This is the software analogue of Pinatubo's one-step n-row OR.
func (v *Vector) OrAll(operands ...*Vector) {
	if len(operands) == 0 {
		panic("bitvec: OrAll needs at least one operand")
	}
	for _, o := range operands {
		v.mustMatch(o)
	}
	for i := range v.words {
		w := operands[0].words[i]
		for _, o := range operands[1:] {
			w |= o.words[i]
		}
		v.words[i] = w
	}
}

// AndAll stores the AND of all operands into v. It panics if operands is
// empty.
func (v *Vector) AndAll(operands ...*Vector) {
	if len(operands) == 0 {
		panic("bitvec: AndAll needs at least one operand")
	}
	for _, o := range operands {
		v.mustMatch(o)
	}
	for i := range v.words {
		w := operands[0].words[i]
		for _, o := range operands[1:] {
			w &= o.words[i]
		}
		v.words[i] = w
	}
}

// Popcount returns the number of set bits.
func (v *Vector) Popcount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.nbits != o.nbits {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEachSet calls fn for every set bit index, in ascending order.
func (v *Vector) ForEachSet(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			fn(wi<<wordLog + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// String renders the vector as a 0/1 string, bit 0 first. Long vectors are
// truncated with an ellipsis; intended for debugging.
func (v *Vector) String() string {
	const limit = 128
	n := v.nbits
	trunc := false
	if n > limit {
		n, trunc = limit, true
	}
	var sb strings.Builder
	sb.Grow(n + 16)
	for i := 0; i < n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "…(+%d bits)", v.nbits-limit)
	}
	return sb.String()
}
