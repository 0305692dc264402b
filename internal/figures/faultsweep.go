package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"pinatubo"
	"pinatubo/internal/bitvec"
)

// This file holds the fault sweep: the resilience layer exercised across
// injected sense-error rates, reporting what correctness costs. The paper
// assumes fault-free multi-row sensing; the sweep quantifies how far the
// verify-retry-degrade ladder can stretch that assumption before the
// effective bandwidth collapses — and shows the results stay bit-exact at
// every point.

// DefaultFaultRates is the sweep cmd/figures runs: fault-free baseline,
// then one decade per point up to a rate where almost every deep OR is
// corrupted at least once.
var DefaultFaultRates = []float64{0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}

// FaultSweepRow is one injected-error-rate point.
type FaultSweepRow struct {
	// Rate is the configured sense-flip probability per bit at the margin
	// floor (SenseFlipRate).
	Rate float64
	// GBps is the effective operand bandwidth of 128-row ORs including all
	// verification, retry and degradation traffic.
	GBps float64
	// Slowdown is GBps(0) / GBps at this rate.
	Slowdown float64
	// Injected sense flips and the ladder's response, summed over the run.
	SenseFlips    int64
	Retries       int64
	DepthSplits   int64
	HostFallbacks int64
	BitsCorrected int64
	// WrongWords counts result words that disagree with the host golden
	// model. The resilience contract is that this is zero at every rate.
	WrongWords int
}

// FaultSweep runs a batch of deep 128-row ORs at each injected error rate
// and measures throughput, ladder activity and (most importantly) that the
// returned bits never go wrong.
func FaultSweep(rates []float64) ([]FaultSweepRow, error) {
	var out []FaultSweepRow
	for _, rate := range rates {
		pt, err := measureDeepOR(sweepConfig(rate))
		if err != nil {
			return nil, err
		}
		out = append(out, FaultSweepRow{
			Rate:          rate,
			GBps:          pt.gbps,
			SenseFlips:    pt.stats.SenseFlips,
			Retries:       pt.stats.Retries,
			DepthSplits:   pt.stats.DepthReductions,
			HostFallbacks: pt.stats.HostFallbacks,
			BitsCorrected: pt.stats.BitsCorrected,
			WrongWords:    pt.wrongWords,
		})
	}
	for i := range out {
		if out[0].GBps > 0 {
			out[i].Slowdown = out[0].GBps / out[i].GBps
		}
	}
	return out, nil
}

// sweepConfig is the evaluation configuration with sense flips injected at
// rate (seed 1): the base every resilience sweep point starts from.
func sweepConfig(rate float64) pinatubo.Config {
	cfg := pinatubo.DefaultConfig()
	cfg.Fault = pinatubo.FaultConfig{Seed: 1, SenseFlipRate: rate}
	return cfg
}

// sweepPoint is one deep-OR measurement of a resilience sweep.
type sweepPoint struct {
	gbps       float64
	stats      pinatubo.FaultStats
	wrongWords int
}

// measureDeepOR runs the resilience sweeps' one workload on a system built
// from cfg: four ORs of the same 128 64-Ki-bit operand rows (one group,
// seed-99 payloads) into one vector, then a read of the result checked
// against the host golden model. gbps is the effective operand bandwidth
// including all verification, retry and degradation traffic.
func measureDeepOR(cfg pinatubo.Config) (sweepPoint, error) {
	const (
		bits = 1 << 16
		ops  = 4
	)
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return sweepPoint{}, err
	}
	w := bitvec.WordsFor(bits)
	srcs, err := sys.AllocGroup(128, bits)
	if err != nil {
		return sweepPoint{}, err
	}
	rng := rand.New(rand.NewSource(99))
	golden := make([]uint64, w)
	words := make([]uint64, w)
	for _, v := range srcs {
		for j := range words {
			words[j] = rng.Uint64()
			golden[j] |= words[j]
		}
		if _, err := sys.Write(v, words); err != nil {
			return sweepPoint{}, err
		}
	}
	dst, err := sys.Alloc(bits)
	if err != nil {
		return sweepPoint{}, err
	}
	var pt sweepPoint
	var seconds float64
	for k := 0; k < ops; k++ {
		res, err := sys.Or(dst, srcs...)
		if err != nil {
			return sweepPoint{}, err
		}
		seconds += res.Latency.Seconds()
	}
	got, _, err := sys.Read(dst)
	if err != nil {
		return sweepPoint{}, err
	}
	for j := range golden {
		if got[j] != golden[j] {
			pt.wrongWords++
		}
	}
	pt.stats = sys.FaultStats()
	pt.gbps = float64(ops) * 128 * float64(bits) / 8 / seconds / 1e9
	return pt, nil
}

// FormatFaultSweep renders the sweep as an aligned text table.
func FormatFaultSweep(rows []FaultSweepRow) string {
	var sb strings.Builder
	sb.WriteString("Fault sweep — 128-row OR bandwidth vs injected sense-error rate\n")
	sb.WriteString("  (verify-and-retry resilience on; results checked against the host golden model)\n")
	for _, r := range rows {
		label := "fault-free"
		if r.Rate > 0 {
			label = fmt.Sprintf("rate %.0e", r.Rate)
		}
		status := "exact"
		if r.WrongWords > 0 {
			status = fmt.Sprintf("%d WRONG WORDS", r.WrongWords)
		}
		fmt.Fprintf(&sb, "  %-10s %8.1f GBps  %5.2fx slower  flips %-6d retries %-4d splits %-3d host %-2d corrected %-6d %s\n",
			label, r.GBps, r.Slowdown, r.SenseFlips, r.Retries,
			r.DepthSplits, r.HostFallbacks, r.BitsCorrected, status)
	}
	return sb.String()
}

// WriteFaultSweepCSV emits: rate, gbps, slowdown, flips, retries, splits,
// host_fallbacks, bits_corrected, wrong_words.
func WriteFaultSweepCSV(w io.Writer, rows []FaultSweepRow) error {
	cw := csv.NewWriter(w)
	header := []string{"rate", "gbps", "slowdown", "flips", "retries", "splits",
		"host_fallbacks", "bits_corrected", "wrong_words"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.FormatFloat(r.Rate, 'e', 1, 64),
			strconv.FormatFloat(r.GBps, 'f', 3, 64),
			strconv.FormatFloat(r.Slowdown, 'f', 3, 64),
			strconv.FormatInt(r.SenseFlips, 10),
			strconv.FormatInt(r.Retries, 10),
			strconv.FormatInt(r.DepthSplits, 10),
			strconv.FormatInt(r.HostFallbacks, 10),
			strconv.FormatInt(r.BitsCorrected, 10),
			strconv.Itoa(r.WrongWords),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
