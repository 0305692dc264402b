package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pinatubo"
)

// This file holds the replication crossover: the reactive resilience
// ladder (verify, retry, depth-split, fall back) against the proactive
// replication rung (R copies per row, majority-voted sensing) across
// injected sense-error rates. Replication pays a fixed tax everywhere —
// R× capacity, R sequential activation groups per request, replica
// refresh after every verified write — while the ladder pays nothing
// until faults appear and then pays per incident. The sweep finds where
// the curves cross: the rate above which the binomial vote tail
// (p ≈ 1e-3 → ≈ 3e-6 for R = 3) converts almost every would-be
// retry/degradation into a clean first-try result and the fixed tax wins.

// ReplicationRow is one injected-error-rate point of the crossover sweep,
// with both builds measured on identical workloads.
type ReplicationRow struct {
	// Rate is the configured sense-flip probability per bit at the margin
	// floor (SenseFlipRate).
	Rate float64

	// The reactive baseline (Replicate = 0, read-back verification).
	BaseGBps     float64
	BaseRetries  int64
	BaseSplits   int64
	BaseHost     int64
	BaseDegraded int64 // ops that left the native rung (splits + fallbacks)

	// The replicated build (Replicate = 3, same verification).
	RepGBps     float64
	RepVotes    int64
	RepOutvoted int64
	RepRetries  int64
	RepDegraded int64

	// Speedup is RepGBps / BaseGBps: above 1, the proactive rung's fixed
	// tax beats the reactive ladder's per-incident cost.
	Speedup float64
	// WrongWords counts result words either build got wrong — the
	// resilience contract keeps this zero at every rate and both builds.
	WrongWords int
}

// ReplicationSweep measures both builds at each rate on a bank of deep
// 128-row ORs, checking every result against the host golden model. Both
// verify by read-back, pinned on even at rate 0 so the fault-free point
// prices the replicated build's fixed tax instead of short-circuiting to
// the raw path.
func ReplicationSweep(rates []float64) ([]ReplicationRow, error) {
	var out []ReplicationRow
	for _, rate := range rates {
		row := ReplicationRow{Rate: rate}
		cfg := sweepConfig(rate)
		cfg.Resilience.Verify = pinatubo.VerifyReadback

		base, err := measureDeepOR(cfg)
		if err != nil {
			return nil, err
		}
		row.BaseGBps = base.gbps
		row.BaseRetries = base.stats.Retries
		row.BaseSplits = base.stats.DepthReductions
		row.BaseHost = base.stats.HostFallbacks
		row.BaseDegraded = base.stats.DepthReductions + base.stats.InterFallbacks + base.stats.HostFallbacks
		row.WrongWords += base.wrongWords

		cfg.Resilience.Replicate = 3
		rep, err := measureDeepOR(cfg)
		if err != nil {
			return nil, err
		}
		row.RepGBps = rep.gbps
		row.RepVotes = rep.stats.Votes
		row.RepOutvoted = rep.stats.BitsOutvoted
		row.RepRetries = rep.stats.Retries
		row.RepDegraded = rep.stats.DepthReductions + rep.stats.InterFallbacks + rep.stats.HostFallbacks
		row.WrongWords += rep.wrongWords

		if row.BaseGBps > 0 {
			row.Speedup = row.RepGBps / row.BaseGBps
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatReplicationSweep renders the crossover as an aligned text table.
func FormatReplicationSweep(rows []ReplicationRow) string {
	var sb strings.Builder
	sb.WriteString("Replication crossover — reactive ladder vs R=3 majority voting, 128-row ORs\n")
	sb.WriteString("  (read-back verification on in both builds; results checked against the host golden model)\n")
	for _, r := range rows {
		label := "fault-free"
		if r.Rate > 0 {
			label = fmt.Sprintf("rate %.0e", r.Rate)
		}
		status := "exact"
		if r.WrongWords > 0 {
			status = fmt.Sprintf("%d WRONG WORDS", r.WrongWords)
		}
		fmt.Fprintf(&sb, "  %-10s base %7.1f GBps (retries %-4d degraded %-3d)  R=3 %7.1f GBps (votes %-4d outvoted %-5d degraded %-3d)  %5.2fx  %s\n",
			label, r.BaseGBps, r.BaseRetries, r.BaseDegraded,
			r.RepGBps, r.RepVotes, r.RepOutvoted, r.RepDegraded,
			r.Speedup, status)
	}
	return sb.String()
}

// WriteReplicationCSV emits: rate, base_gbps, base_retries, base_splits,
// base_host, base_degraded, rep_gbps, rep_votes, rep_outvoted,
// rep_retries, rep_degraded, speedup, wrong_words.
func WriteReplicationCSV(w io.Writer, rows []ReplicationRow) error {
	cw := csv.NewWriter(w)
	header := []string{"rate", "base_gbps", "base_retries", "base_splits",
		"base_host", "base_degraded", "rep_gbps", "rep_votes",
		"rep_outvoted", "rep_retries", "rep_degraded", "speedup", "wrong_words"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.FormatFloat(r.Rate, 'e', 1, 64),
			strconv.FormatFloat(r.BaseGBps, 'f', 3, 64),
			strconv.FormatInt(r.BaseRetries, 10),
			strconv.FormatInt(r.BaseSplits, 10),
			strconv.FormatInt(r.BaseHost, 10),
			strconv.FormatInt(r.BaseDegraded, 10),
			strconv.FormatFloat(r.RepGBps, 'f', 3, 64),
			strconv.FormatInt(r.RepVotes, 10),
			strconv.FormatInt(r.RepOutvoted, 10),
			strconv.FormatInt(r.RepRetries, 10),
			strconv.FormatInt(r.RepDegraded, 10),
			strconv.FormatFloat(r.Speedup, 'f', 3, 64),
			strconv.Itoa(r.WrongWords),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
