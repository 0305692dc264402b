package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pinatubo"
)

// This file holds the ECC sweep: read-back verification and the in-array
// SECDED path side by side across injected sense-error rates. The fault
// sweep showed correctness is buyable but the read-back tax is ~44x even on
// perfect hardware; this sweep shows the SECDED path prices verification at
// a few command-bus slots instead, while keeping the same bit-exactness
// contract (single-bit errors corrected in the array, double-bit syndromes
// escalated to the read-back ladder).

// ECCSweepRow is one (rate, verification mode) point.
type ECCSweepRow struct {
	// Rate is the configured sense-flip probability per bit at the margin
	// floor (SenseFlipRate).
	Rate float64
	// Mode is the verification mode ("readback" or "ecc").
	Mode string
	// GBps is the effective operand bandwidth of 128-row ORs including all
	// verification, correction and degradation traffic.
	GBps float64
	// Overhead is GBps(unverified, fault-free) / GBps — the price of the
	// verification mode relative to trusting the hardware outright.
	Overhead float64
	// Injected flips and the layer's response, summed over the run.
	SenseFlips       int64
	Verifies         int64
	EccDecodes       int64
	EccCorrected     int64
	EccUncorrectable int64
	Retries          int64
	HostFallbacks    int64
	// WrongWords counts result words that disagree with the host golden
	// model. The contract is that this is zero at every rate in both modes.
	WrongWords int
}

// eccSweepPoint runs the standard deep-OR batch under one configuration and
// returns its bandwidth and outcome. VerifyOff at rate 0 is the unverified
// baseline the Overhead column is normalised against.
func eccSweepPoint(rate float64, mode pinatubo.VerifyMode) (ECCSweepRow, error) {
	cfg := sweepConfig(rate)
	cfg.Resilience.Verify = mode
	pt, err := measureDeepOR(cfg)
	if err != nil {
		return ECCSweepRow{}, err
	}
	return ECCSweepRow{
		Rate:             rate,
		Mode:             mode.String(),
		GBps:             pt.gbps,
		SenseFlips:       pt.stats.SenseFlips,
		Verifies:         pt.stats.Verifies,
		EccDecodes:       pt.stats.EccDecodes,
		EccCorrected:     pt.stats.EccCorrectedBits,
		EccUncorrectable: pt.stats.EccUncorrectables,
		Retries:          pt.stats.Retries,
		HostFallbacks:    pt.stats.HostFallbacks,
		WrongWords:       pt.wrongWords,
	}, nil
}

// ECCSweep runs the deep-OR batch at each injected error rate under both
// read-back and SECDED verification, normalised against one unverified
// fault-free baseline run.
func ECCSweep(rates []float64) ([]ECCSweepRow, error) {
	base, err := eccSweepPoint(0, pinatubo.VerifyOff)
	if err != nil {
		return nil, err
	}
	var out []ECCSweepRow
	for _, rate := range rates {
		for _, mode := range []pinatubo.VerifyMode{pinatubo.VerifyReadback, pinatubo.VerifyECC} {
			row, err := eccSweepPoint(rate, mode)
			if err != nil {
				return nil, err
			}
			if base.GBps > 0 {
				row.Overhead = base.GBps / row.GBps
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatECCSweep renders the sweep as an aligned text table.
func FormatECCSweep(rows []ECCSweepRow) string {
	var sb strings.Builder
	sb.WriteString("ECC sweep — 128-row OR bandwidth: read-back vs in-array SECDED verification\n")
	sb.WriteString("  (overhead is relative to the unverified fault-free baseline; results checked\n")
	sb.WriteString("   against the host golden model at every point)\n")
	for _, r := range rows {
		label := "fault-free"
		if r.Rate > 0 {
			label = fmt.Sprintf("rate %.0e", r.Rate)
		}
		status := "exact"
		if r.WrongWords > 0 {
			status = fmt.Sprintf("%d WRONG WORDS", r.WrongWords)
		}
		fmt.Fprintf(&sb, "  %-10s %-8s %8.1f GBps  %6.2fx overhead  flips %-6d decodes %-5d corrected %-5d escalated %-4d readbacks %-4d retries %-4d %s\n",
			label, r.Mode, r.GBps, r.Overhead, r.SenseFlips, r.EccDecodes,
			r.EccCorrected, r.EccUncorrectable, r.Verifies, r.Retries, status)
	}
	return sb.String()
}

// WriteECCSweepCSV emits: rate, mode, gbps, overhead, flips, ecc_decodes,
// ecc_corrected, ecc_uncorrectable, readback_verifies, retries,
// host_fallbacks, wrong_words.
func WriteECCSweepCSV(w io.Writer, rows []ECCSweepRow) error {
	cw := csv.NewWriter(w)
	header := []string{"rate", "mode", "gbps", "overhead", "flips", "ecc_decodes",
		"ecc_corrected", "ecc_uncorrectable", "readback_verifies", "retries",
		"host_fallbacks", "wrong_words"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.FormatFloat(r.Rate, 'e', 1, 64),
			r.Mode,
			strconv.FormatFloat(r.GBps, 'f', 3, 64),
			strconv.FormatFloat(r.Overhead, 'f', 3, 64),
			strconv.FormatInt(r.SenseFlips, 10),
			strconv.FormatInt(r.EccDecodes, 10),
			strconv.FormatInt(r.EccCorrected, 10),
			strconv.FormatInt(r.EccUncorrectable, 10),
			strconv.FormatInt(r.Verifies, 10),
			strconv.FormatInt(r.Retries, 10),
			strconv.FormatInt(r.HostFallbacks, 10),
			strconv.Itoa(r.WrongWords),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
