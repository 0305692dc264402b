package fault

import "math/rand"

// source is a rand.Source64 that emits exactly math/rand's stream for
// every seed, but seeds in O(1).
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register. Its Seed runs a Lehmer generator
// x[k+1] = 48271·x[k] mod (2^31−1) from the reduced seed for 1,841 steps
// and fills word i from three of them and a fixed table:
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// Each x[k] has the closed form 48271^k · x[0] mod (2^31−1), so word i
// does not depend on the others. Seed therefore only records the reduced
// seed and starts a new generation; a word is built from the closed form
// on its first read and stamped with the generation, and later reads in
// the generation use the register as math/rand would.
type source struct {
	tap, feed int
	// seed is x[0]: the seed reduced mod 2^31−1 exactly as math/rand
	// reduces it.
	seed uint64
	// gen is the current generation; a word whose stamp differs has not
	// been built since the last Seed.
	gen   uint32
	stamp [rngLen]uint32
	vec   [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// seedZero is what math/rand seeds with when the seed reduces to 0.
	seedZero = 89482311
)

var (
	// lehmerPow[i] holds 48271^k mod (2^31−1) for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that build word i.
	lehmerPow = lehmerPowers()
	// cooked is math/rand's fixed seeding table, recovered from its own
	// stream rather than copied (recoverCooked).
	cooked = recoverCooked()
)

// lehmerPowers returns the powers of the Lehmer multiplier that seeding
// word i needs, walking the 1,841 steps of math/rand's Seed once.
func lehmerPowers() (pow [rngLen][3]uint32) {
	x := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		x = x * lehmerA % lehmerM
		if k > 20 {
			j := k - 21
			pow[j/3][j%3] = uint32(x)
		}
	}
	return pow
}

// recoverCooked rebuilds math/rand's seeding table from the first 607
// outputs of its seed-1 stream. Those outputs write every register word
// exactly once, so they are the register after 607 steps; running the
// additive recurrence backwards gives seed 1's initial register, and
// XORing off seed 1's Lehmer part leaves the table.
func recoverCooked() (table [rngLen]uint64) {
	ref := rand.NewSource(1).(rand.Source64)
	var feeds [rngLen]int
	vec := &table
	feed := rngLen - rngTap
	for n := range feeds {
		feed--
		if feed < 0 {
			feed += rngLen
		}
		feeds[n] = feed
		vec[feed] = ref.Uint64()
	}
	for n := rngLen - 1; n >= 0; n-- {
		// Both indices fall by one per step, so the tap stays rngTap
		// words above the feed.
		tap := (feeds[n] + rngTap) % rngLen
		vec[feeds[n]] -= vec[tap]
	}
	for i := range vec {
		vec[i] ^= lehmerWord(1, i)
	}
	return table
}

// lehmerWord is the Lehmer part of register word i under reduced seed s.
func lehmerWord(s uint64, i int) uint64 {
	p := &lehmerPow[i]
	return mulMod(p[0], s)<<40 ^ mulMod(p[1], s)<<20 ^ mulMod(p[2], s)
}

// mulMod returns a·s mod 2^31−1 for a, s below 2^31, folding the
// product's high bits onto its low ones (2^31 ≡ 1).
func mulMod(a uint32, s uint64) uint64 {
	p := uint64(a) * s
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed positions the source at the start of seed's stream. It costs O(1):
// the register words are built as they are first read.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// The counter wrapped: clear every stamp, so none left from an
		// earlier generation with the same number can look current.
		clear(s.stamp[:])
		s.gen = 1
	}
}

// word returns register word i, building it on its first read in the
// generation.
func (s *source) word(i int) uint64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = lehmerWord(s.seed, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 steps the lag-607/273 additive recurrence.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns Uint64 with its top bit cleared, as math/rand does.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
