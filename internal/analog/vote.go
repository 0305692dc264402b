// Majority-vote margin model for the replicated execution mode (the
// PULSAR-style proactive rung of the resilience ladder). Activating the
// operand set R times and majority-voting the R sensed results does not
// change the per-step analog margin — relMargin is scale invariant, so
// opening R·n rows at once gains nothing and would blow the MaxOpenRows
// cap. What voting buys is statistical: a per-bit misresolve of
// probability p survives the vote only if at least ⌈R/2⌉ of the R
// independent sensing steps misresolve the same bit, a binomial tail that
// collapses p ≈ 1e-3 to ≈ 3e-6 for R = 3. MajorityErrProb computes that
// tail.
package analog

import (
	"fmt"
	"math"
)

// ValidReplication reports whether r is a legal replication factor for
// majority voting: 0 (disabled) or an odd count in 3..7. Even counts can
// tie and factors past 7 cost more capacity than any margin they buy.
func ValidReplication(r int) bool {
	return r == 0 || (r%2 == 1 && r >= 3 && r <= 7)
}

// MajorityErrProb returns the probability that a bit sensed r times, each
// time misresolving independently with probability p, still comes out
// wrong after a ⌈r/2⌉-of-r majority vote: the upper binomial tail
// P[X ≥ ⌈r/2⌉], X ~ B(r, p). Panics on an invalid replication factor or a
// probability outside [0,1]; r == 0 (voting disabled) returns p unchanged.
func MajorityErrProb(p float64, r int) float64 {
	if !ValidReplication(r) {
		panic(fmt.Sprintf("analog: invalid replication factor %d", r))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("analog: flip probability %g outside 0..1", p))
	}
	if r == 0 {
		return p
	}
	need := r/2 + 1
	tail := 0.0
	for k := need; k <= r; k++ {
		tail += binomialPMF(r, k, p)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// binomialPMF returns C(n,k)·p^k·(1-p)^(n-k) for the tiny n in play here.
func binomialPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c *= float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}
