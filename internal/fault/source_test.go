package fault

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds the stream tests compare on: the ones math/rand
// reduces specially (0, multiples of 2^31−1, negatives, the extremes of
// int64, the value 0 maps to) and 200 well-mixed ones.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, lehmerM, 1 << 31, seedZero, math.MinInt64, 1<<62 + 12345}
	for i := uint64(1); i <= 200; i++ {
		seeds = append(seeds, int64(splitmix64(i)))
	}
	return seeds
}

// TestSourceMatchesMathRand pins the O(1)-seeded source to math/rand's
// stream: 5,000 mixed draws per seed wrap the 607-word register several
// times, and a reseed after them restarts both streams mid-register.
func TestSourceMatchesMathRand(t *testing.T) {
	got := rand.New(newSource(0))
	for _, seed := range sourceSeeds() {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		sameDraws(t, fmt.Sprintf("seed %d", seed), 5000, got, want)
		reseed := ^seed
		got.Seed(reseed)
		want.Seed(reseed)
		sameDraws(t, fmt.Sprintf("seed %d", reseed), 5000, got, want)
	}
}

// TestSourceGenerationWrap pins that a wrapped generation counter cannot
// make a word built in an earlier generation look current.
func TestSourceGenerationWrap(t *testing.T) {
	src := newSource(3)
	got := rand.New(src)
	got.Float64()
	src.gen = math.MaxUint32
	for _, seed := range []int64{5, 3} {
		got.Seed(seed)
		sameDraws(t, fmt.Sprintf("seed %d", seed), 5000, got, rand.New(rand.NewSource(seed)))
	}
}

// FuzzSourceMatchesMathRand compares draws from the source and math/rand
// for any seed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := rand.New(newSource(seed))
		sameDraws(t, fmt.Sprintf("seed %d", seed), int(draws), got, rand.New(rand.NewSource(seed)))
	})
}
