package bench

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples: the value at rank ceil(p·n). It refuses a quantile with fewer
// than minBeyond samples above it, so a tail figure always rests on a tail.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, want at least %d",
			100*p, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle of a small set of repetitions (the mean of the
// two middle values for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 — a per-op or per-lookup figure of a
// layer that did no work in a workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
