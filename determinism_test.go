package pinatubo

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"pinatubo/internal/bitvec"
)

// pipelineRecord is everything externally observable from one end-to-end
// run: per-operation Results, the data read back, the aggregate counters
// and a small planning sweep. Marshalled to JSON so the comparison is over
// the exact bytes a caller logging results would see.
type pipelineRecord struct {
	Results  []Result
	Popcount int
	Data     []uint64
	Stats    Stats
	Faults   FaultStats
	Plan     PlanReport
}

// runPipeline executes the full OR/XOR/ECC pipeline on a fresh
// fault-injected system: seeded random operands, a maximally deep OR, an
// XOR and a NOT under SECDED ECC verification, a popcount, a read-back
// and a short arbiter-aware plan. Everything observable goes into the
// returned JSON.
func runPipeline(t *testing.T) []byte {
	t.Helper()
	sys, err := New(Config{
		Tech:       PCM,
		Fault:      FaultConfig{Seed: 7, SenseFlipRate: 1e-5, ActivationFailRate: 1e-6},
		Resilience: ResilienceConfig{Verify: VerifyECC},
	})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1 << 12
	srcs, err := sys.AllocGroup(8, bits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var rec pipelineRecord
	for _, v := range srcs {
		words := make([]uint64, bitvec.WordsFor(bits))
		for j := range words {
			words[j] = rng.Uint64()
		}
		res, err := sys.Write(v, words)
		if err != nil {
			t.Fatal(err)
		}
		rec.Results = append(rec.Results, res)
	}
	dst, err := sys.Alloc(bits)
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.Or(dst, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	rec.Results = append(rec.Results, res)
	res, err = sys.Xor(dst, srcs[0], srcs[1])
	if err != nil {
		t.Fatal(err)
	}
	rec.Results = append(rec.Results, res)
	res, err = sys.Not(dst, srcs[2])
	if err != nil {
		t.Fatal(err)
	}
	rec.Results = append(rec.Results, res)

	count, res, err := sys.Popcount(dst)
	if err != nil {
		t.Fatal(err)
	}
	rec.Popcount = count
	rec.Results = append(rec.Results, res)

	data, res, err := sys.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	rec.Data = data
	rec.Results = append(rec.Results, res)

	rec.Stats = sys.Stats()
	rec.Faults = sys.FaultStats()

	plan, err := sys.Plan(OpXor, 4, 1e-6, WithArbiter(ArbOldestReady))
	if err != nil {
		t.Fatal(err)
	}
	rec.Plan = plan

	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPipelineDeterministicAcrossGOMAXPROCS is the repo-level determinism
// regression: the same configuration must produce byte-identical JSON
// output regardless of scheduler parallelism. The simulator is specified
// to be bit-exact — seeded RNG only, no wall clock, no map-iteration
// order in results — and this test exercises that promise end to end
// (write, OR, XOR, NOT, popcount, read, ECC verification, fault
// accounting, planning) under GOMAXPROCS=1 and GOMAXPROCS=NumCPU.
// Test-order independence is covered separately by `go test -shuffle=on`
// in CI.
func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	one := runPipeline(t)
	oneAgain := runPipeline(t)
	if !bytes.Equal(one, oneAgain) {
		t.Fatalf("two identical runs at GOMAXPROCS=1 differ:\n%s\n%s", one, oneAgain)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	many := runPipeline(t)
	if !bytes.Equal(one, many) {
		t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=%d runs differ:\n%s\n%s",
			runtime.NumCPU(), one, many)
	}
}
