package chansim

import (
	"fmt"
	"sort"
)

// Percentiles summarises a sample with nearest-rank percentiles.
type Percentiles struct {
	P50  float64
	P99  float64
	Mean float64
	Max  float64
}

// PercentilesOf computes nearest-rank p50/p99 plus mean and max of xs.
// An empty sample returns the zero value.
func PercentilesOf(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Percentiles{
		P50:  sorted[NearestRank(0.50, len(sorted))],
		P99:  sorted[NearestRank(0.99, len(sorted))],
		Mean: sum / float64(len(sorted)),
		Max:  sorted[len(sorted)-1],
	}
}

// NearestRank returns the index of the nearest-rank p-quantile in an
// ascending sample of n >= 1 values: the smallest value with at least p
// of the mass at or below it, which is the ⌈p·n⌉-th smallest. The
// epsilon absorbs float error: 0.07·100 evaluates to 7.000000000000001,
// and its rank is still the 7th.
func NearestRank(p float64, n int) int {
	return min(max(int(p*float64(n)+0.9999999999)-1, 0), n-1)
}

// MCConfig drives a Monte Carlo scheduling experiment.
type MCConfig struct {
	// Replications is the number of independent trace samples (>= 1).
	Replications int
	// Arb is the arbitration policy to schedule under.
	Arb Arbiter
}

// MCResult aggregates the schedule statistics across replications.
type MCResult struct {
	Replications int
	// Latency pools every request's completion time across replications.
	Latency Percentiles
	// Makespan, Throughput (requests/sec) and BusUtilisation are
	// per-replication statistics.
	Makespan       Percentiles
	Throughput     Percentiles
	BusUtilisation Percentiles
}

// MonteCarlo samples gen once per replication, schedules each sample under
// cfg.Arb and aggregates latency/makespan/throughput percentiles. The
// randomness is gen's own: a caller's traces carry it (e.g. pre-sampled
// fault expansions keyed off the replication index).
func MonteCarlo(cfg MCConfig, gen func(rep int) ([]Request, error)) (MCResult, error) {
	if cfg.Replications < 1 {
		return MCResult{}, fmt.Errorf("chansim: replications=%d", cfg.Replications)
	}
	var latencies, makespans, throughputs, utils []float64
	for rep := 0; rep < cfg.Replications; rep++ {
		reqs, err := gen(rep)
		if err != nil {
			return MCResult{}, fmt.Errorf("chansim: replication %d: %w", rep, err)
		}
		res, err := ScheduleWith(reqs, cfg.Arb)
		if err != nil {
			return MCResult{}, fmt.Errorf("chansim: replication %d: %w", rep, err)
		}
		latencies = append(latencies, res.Completion...)
		makespans = append(makespans, res.Makespan)
		if res.Makespan > 0 {
			throughputs = append(throughputs, float64(len(reqs))/res.Makespan)
		}
		utils = append(utils, res.BusUtilisation())
	}
	return MCResult{
		Replications:   cfg.Replications,
		Latency:        PercentilesOf(latencies),
		Makespan:       PercentilesOf(makespans),
		Throughput:     PercentilesOf(throughputs),
		BusUtilisation: PercentilesOf(utils),
	}, nil
}
