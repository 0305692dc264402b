package figures

import (
	"fmt"
	"strings"

	"pinatubo/internal/area"
	"pinatubo/internal/chansim"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out: the design
// choices the paper fixes (32:1 column mux, 128-row OR depth, PCM) swept
// across their plausible ranges so the sensitivity of the headline results
// is visible.

// DepthAblationRow is one point of the OR-depth sweep.
type DepthAblationRow struct {
	Depth int
	// GmeanSpeedup is the bitwise-speedup gmean over the five Vector
	// workloads, normalised to the SIMD baseline.
	GmeanSpeedup float64
}

// DepthAblation sweeps the one-step OR depth (the paper picks 128 for PCM,
// 2 for STT-MRAM) over the Vector workloads. It shows where the returns
// of deeper multi-row sensing saturate — and that even depth 4 already
// beats the chained 2-row design.
func DepthAblation() ([]DepthAblationRow, error) {
	simdEng, err := newSIMDPCM()
	if err != nil {
		return nil, err
	}
	var traces []*workload.Trace
	for _, vw := range VectorWorkloads() {
		tr, err := BuildVectorTrace(vw)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	var out []DepthAblationRow
	for _, depth := range []int{2, 4, 8, 16, 32, 64, 128} {
		eng, err := pimrt.NewEngine(nvm.PCM, depth)
		if err != nil {
			return nil, err
		}
		var speedups []float64
		for _, tr := range traces {
			base, err := tr.Run(simdEng)
			if err != nil {
				return nil, err
			}
			res, err := tr.Run(eng)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, res.Speedup(base))
		}
		out = append(out, DepthAblationRow{Depth: depth, GmeanSpeedup: workload.Gmean(speedups)})
	}
	return out, nil
}

// MuxAblationRow is one point of the column-mux sweep.
type MuxAblationRow struct {
	MuxRatio int
	// GBps2Row / GBps128Row: one-op OR throughput at the full rank row.
	GBps2Row   float64
	GBps128Row float64
	// AreaFraction is Pinatubo's add-on area at this mux ratio (more SAs
	// per MAT → more reference/XOR circuitry).
	AreaFraction float64
}

// MuxAblation sweeps the SA-sharing ratio. The paper's NVM design point is
// 32:1 (turning point A); a smaller mux senses more bits per step (faster)
// but pays for more sense amplifiers and their Pinatubo add-ons.
func MuxAblation() ([]MuxAblationRow, error) {
	var out []MuxAblationRow
	for _, mux := range []int{8, 16, 32, 64} {
		geo := memarch.Default()
		geo.MuxRatio = mux
		eng, err := pimrt.NewEngineWithGeometry(nvm.PCM, 128, geo)
		if err != nil {
			return nil, err
		}
		row := MuxAblationRow{MuxRatio: mux}
		bits := geo.RowBits()
		for _, n := range []int{2, 128} {
			cost, err := eng.OpCost(workload.OpSpec{
				Op: sense.OpOR, Operands: n, Bits: bits, Placement: workload.PlaceIntra,
			})
			if err != nil {
				return nil, err
			}
			gbps := float64(n) * float64(bits) / 8 / cost.Seconds / 1e9
			if n == 2 {
				row.GBps2Row = gbps
			} else {
				row.GBps128Row = gbps
			}
		}
		o, err := area.Pinatubo(geo, nvm.Get(nvm.PCM), area.DefaultParams())
		if err != nil {
			return nil, err
		}
		row.AreaFraction = o.TotalFraction()
		out = append(out, row)
	}
	return out, nil
}

// TechAblationRow is one technology's result.
type TechAblationRow struct {
	Tech nvm.Tech
	// Depth is the effective one-step OR depth (margin-limited).
	Depth int
	// GmeanSpeedup over the Vector workloads vs a SIMD baseline attached
	// to the same memory technology.
	GmeanSpeedup float64
}

// TechAblation compares Pinatubo built on each NVM technology, each
// against a SIMD processor using the same memory. STT-MRAM's fast array
// cannot compensate for its 2-row sensing cap on multi-row workloads —
// the quantitative form of the paper's technology discussion.
func TechAblation() ([]TechAblationRow, error) {
	var traces []*workload.Trace
	for _, vw := range VectorWorkloads() {
		tr, err := BuildVectorTrace(vw)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	var out []TechAblationRow
	for _, p := range nvm.All() {
		eng, err := pimrt.NewEngine(p.Tech, 128) // clamped to the tech's limit
		if err != nil {
			return nil, err
		}
		simdEng, err := newSIMDFor(p.Tech)
		if err != nil {
			return nil, err
		}
		var speedups []float64
		for _, tr := range traces {
			base, err := tr.Run(simdEng)
			if err != nil {
				return nil, err
			}
			res, err := tr.Run(eng)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, res.Speedup(base))
		}
		out = append(out, TechAblationRow{
			Tech:         p.Tech,
			Depth:        eng.MaxRows(),
			GmeanSpeedup: workload.Gmean(speedups),
		})
	}
	return out, nil
}

// FormatAblations renders all three studies.
func FormatAblations(depth []DepthAblationRow, mux []MuxAblationRow, tech []TechAblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation A — one-step OR depth (Vector workloads, gmean speedup vs SIMD)\n")
	for _, r := range depth {
		fmt.Fprintf(&sb, "  depth %3d: %8.1fx\n", r.Depth, r.GmeanSpeedup)
	}
	sb.WriteString("\nAblation B — SA column-mux ratio (2^19-bit OR throughput / add-on area)\n")
	for _, r := range mux {
		fmt.Fprintf(&sb, "  mux %2d:1  2-row %8.1f GBps  128-row %9.1f GBps  area %+.2f%%\n",
			r.MuxRatio, r.GBps2Row, r.GBps128Row, r.AreaFraction*100)
	}
	sb.WriteString("\nAblation C — cell technology (Vector workloads, gmean speedup vs same-memory SIMD)\n")
	for _, r := range tech {
		fmt.Fprintf(&sb, "  %-9s depth %3d: %8.1fx\n", r.Tech, r.Depth, r.GmeanSpeedup)
	}
	return sb.String()
}

// ConcurrencyRow is one point of the in-flight-requests sweep.
type ConcurrencyRow struct {
	Depth     int       // operand rows of the template OR
	InFlight  []int     // swept k values
	OpsPerSec []float64 // channel throughput at each k
	Saturate  int       // k beyond which throughput gains < 5%/step
}

// ConcurrencyAblation drives the discrete-event channel simulator with
// real controller command sequences to measure how many Pinatubo requests
// one channel can genuinely overlap across banks — validating that the
// trace evaluation's Parallelism = channels assumption is conservative.
func ConcurrencyAblation() ([]ConcurrencyRow, error) {
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(nvm.PCM))
	if err != nil {
		return nil, err
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		return nil, err
	}
	tech := nvm.Get(nvm.PCM)
	ks := []int{1, 2, 4, 8, 16, 32}
	var out []ConcurrencyRow
	for _, depth := range []int{2, 128} {
		srcs := make([]memarch.RowAddr, depth)
		for i := range srcs {
			srcs[i] = memarch.RowAddr{Subarray: 0, Row: i}
		}
		dst := memarch.RowAddr{Subarray: 0, Row: memarch.Default().RowsPerSubarray - 1}
		res, err := ctl.Execute(sense.OpOR, srcs, memarch.Default().RowBits(), &dst)
		if err != nil {
			return nil, err
		}
		req := chansim.FromDDR(res.Commands,
			tech.Timing, ddr.DefaultBus(), memarch.Default())
		curve, err := chansim.ThroughputCurve(req, ks)
		if err != nil {
			return nil, err
		}
		sat, err := chansim.SaturationPoint(req, ks, 0.05)
		if err != nil {
			return nil, err
		}
		out = append(out, ConcurrencyRow{
			Depth:     depth,
			InFlight:  append([]int(nil), ks...),
			OpsPerSec: curve,
			Saturate:  sat,
		})
	}
	return out, nil
}

// FormatConcurrency renders the concurrency ablation.
func FormatConcurrency(rows []ConcurrencyRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation D — per-channel request concurrency (discrete-event command bus)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %3d-row OR: ", r.Depth)
		for i, k := range r.InFlight {
			fmt.Fprintf(&sb, "k=%-2d %6.2f Mops/s  ", k, r.OpsPerSec[i]/1e6)
		}
		fmt.Fprintf(&sb, "(saturates ~k=%d)\n", r.Saturate)
	}
	return sb.String()
}
