package ledger

import (
	"math/rand"
	"testing"
)

func randomLedger(rng *rand.Rand) Ledger {
	var l Ledger
	for i := range l.Count {
		l.Count[i] = rng.Int63n(1 << 40)
	}
	l.BusySeconds = rng.Float64()
	l.EnergyJoules = rng.Float64()
	return l
}

// Absorb of random ledgers equals their field-wise sum, in absorb order.
func TestAbsorbIsFieldwiseSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		parts := make([]Ledger, 1+rng.Intn(5))
		for i := range parts {
			parts[i] = randomLedger(rng)
		}
		var got, want Ledger
		for i := range parts {
			got.Absorb(&parts[i])
			for c := Counter(0); c < NumCounters; c++ {
				want.Count[c] += parts[i].Count[c]
			}
			want.BusySeconds += parts[i].BusySeconds
			want.EnergyJoules += parts[i].EnergyJoules
		}
		if got != want {
			t.Fatalf("trial %d: Absorb gave %+v, want %+v", trial, got, want)
		}
	}
}

func TestResetYieldsZeroLedger(t *testing.T) {
	l := randomLedger(rand.New(rand.NewSource(2)))
	l.Reset()
	if l != (Ledger{}) {
		t.Fatalf("Reset left %+v", l)
	}
}
