package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"pinatubo"
	"pinatubo/internal/analog"
	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ecc"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// This file derives the per-layer figures the benchmark cannot time
// around a public call: counter deltas of the simulated hardware and the
// runtime, and replays of the sense kernel and the SECDED codec on the
// work a run did.

// kernelShape is one sense-kernel invocation shape: the op over rows
// operand rows of words words each.
type kernelShape struct {
	op          pinatubo.Op
	rows, words int
}

// kernelMix counts the sense-kernel shapes a measured phase issued.
type kernelMix map[kernelShape]int64

// add records one in-memory op (popcount and host traffic never reach
// the sense kernel).
func (m kernelMix) add(op pinatubo.Op, srcs, bits int) {
	if op == pinatubo.OpPopcount {
		return
	}
	m[kernelShape{op: op, rows: srcs, words: bitvec.WordsFor(bits)}]++
}

// kernelReps caps how many calls replay one shape.
const kernelReps = 64

// senseOp maps a public op onto the sense-amplifier op the kernel runs.
func senseOp(op pinatubo.Op) (sense.Op, error) {
	switch op {
	case pinatubo.OpOr:
		return sense.OpOR, nil
	case pinatubo.OpAnd:
		return sense.OpAND, nil
	case pinatubo.OpXor:
		return sense.OpXOR, nil
	case pinatubo.OpNot:
		return sense.OpINV, nil
	case pinatubo.OpCopy:
		return sense.OpRead, nil
	default:
		return 0, fmt.Errorf("bench: %v has no sense kernel", op)
	}
}

// replayKernel times backend.SenseAmp.ComputeInto on a recorded mix (PCM
// parameters, the default analog cross-check), up to kernelReps calls per
// shape, and scales each shape's mean by its count. It returns the mean
// kernel time per op and the total kernel seconds the mix implies.
func replayKernel(mix kernelMix, seed int64) (usPerOp, totalSec float64, err error) {
	sa, err := backend.NewSenseAmp(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), pinatubo.DefaultConfig().AnalogCheckBits)
	if err != nil {
		return 0, 0, err
	}
	shapes := make([]kernelShape, 0, len(mix))
	for s := range mix {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool {
		a, b := shapes[i], shapes[j]
		if a.op != b.op {
			return a.op < b.op
		}
		if a.rows != b.rows {
			return a.rows < b.rows
		}
		return a.words < b.words
	})
	rng := rand.New(rand.NewSource(seed))
	var ops int64
	for _, s := range shapes {
		sop, err := senseOp(s.op)
		if err != nil {
			return 0, 0, err
		}
		rows := make([][]uint64, s.rows)
		for i := range rows {
			rows[i] = make([]uint64, s.words)
			for j := range rows[i] {
				rows[i][j] = rng.Uint64()
			}
		}
		dst := make([]uint64, s.words)
		reps := min(mix[s], kernelReps)
		start := clock()
		for i := int64(0); i < reps; i++ {
			if err := sa.ComputeInto(dst, sop, rows); err != nil {
				return 0, 0, fmt.Errorf("bench: kernel replay %v×%d: %w", s.op, s.rows, err)
			}
		}
		totalSec += since(start).Seconds() / float64(reps) * float64(mix[s])
		ops += mix[s]
	}
	return ratio(totalSec*1e6, float64(ops)), totalSec, nil
}

// eccReps is how many encode/decode passes the codec replay times.
const eccReps = 5

// replayECC times the SECDED codec encoding and decoding one row of
// rowBits random bits with the default (72,64) code, as the medians of
// eccReps passes in microseconds.
func replayECC(rowBits int, seed int64) (encUS, decUS float64, err error) {
	codec, err := ecc.New(64)
	if err != nil {
		return 0, 0, err
	}
	data := randomVector(rand.New(rand.NewSource(seed)), rowBits).Words()
	work := make([]uint64, len(data))
	var enc, dec []float64
	for i := 0; i < eccReps; i++ {
		start := clock()
		check := codec.EncodeRow(data, rowBits)
		enc = append(enc, micros(since(start)))
		copy(work, data)
		start = clock()
		res := codec.DecodeRow(work, check, rowBits)
		dec = append(dec, micros(since(start)))
		if !res.Clean() || res.CorrectedData != 0 {
			return 0, 0, fmt.Errorf("bench: ECC replay decoded a clean row as %+v", res)
		}
	}
	return median(enc), median(dec), nil
}

// replanReps is how many plans the replan timing takes the median of.
const replanReps = 3

// timeReplan times the plan pinatubod's admission controller re-derives
// its window cap from — Plan(OpOr, 16, 0) — on a fresh twin System of the
// workload's configuration, in milliseconds.
func timeReplan(cfg pinatubo.Config) (float64, error) {
	twin, err := pinatubo.New(cfg)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < replanReps; i++ {
		start := clock()
		if _, err := twin.Plan(pinatubo.OpOr, 16, 0); err != nil {
			return 0, err
		}
		ms = append(ms, micros(since(start))/1e3)
	}
	return median(ms), nil
}

// counters is one snapshot of a System's ledgers.
type counters struct {
	stats pinatubo.Stats
	fault pinatubo.FaultStats
	hw    pinatubo.HardwareCounters
	perf  pinatubo.PerfStats
}

func snapshot(sys *pinatubo.System) counters {
	return counters{stats: sys.Stats(), fault: sys.FaultStats(), hw: sys.HardwareCounters(), perf: sys.PerfStats()}
}

// counterLayers records the per-layer counter metrics between two
// snapshots: ops public operations that processed bits vector bits.
func (p *pass) counterLayers(a, b counters, ops int64, bits float64) {
	n := float64(ops)
	v := p.layers
	hits := float64(b.perf.ProgramCacheHits - a.perf.ProgramCacheHits)
	misses := float64(b.perf.ProgramCacheMisses - a.perf.ProgramCacheMisses)
	v["cmdstream.hit_rate"] = ratio(hits, hits+misses)
	v["cmdstream.lookups_per_op"] = ratio(hits+misses, n)
	v["pimrt.requests_per_op"] = ratio(float64(b.stats.Requests-a.stats.Requests), n)
	v["pimrt.verifies_per_op"] = ratio(float64(b.fault.Verifies-a.fault.Verifies), n)
	v["pimrt.retries_per_op"] = ratio(float64(b.fault.Retries-a.fault.Retries), n)
	v["pimrt.depth_reductions"] = float64(b.fault.DepthReductions - a.fault.DepthReductions)
	v["pimrt.fallbacks"] = float64(b.fault.InterFallbacks - a.fault.InterFallbacks + b.fault.HostFallbacks - a.fault.HostFallbacks)
	v["ecc.decodes_per_op"] = ratio(float64(b.fault.EccDecodes-a.fault.EccDecodes), n)
	v["ecc.corrected_bits_per_op"] = ratio(float64(b.fault.EccCorrectedBits-a.fault.EccCorrectedBits), n)
	v["fault.flips_per_op"] = ratio(float64(b.fault.SenseFlips-a.fault.SenseFlips), n)
	v["hw.activations_per_op"] = ratio(float64(b.hw.Activations-a.hw.Activations), n)
	v["hw.sense_steps_per_op"] = ratio(float64(b.hw.SenseSteps-a.hw.SenseSteps), n)
	v["hw.writebacks_per_op"] = ratio(float64(b.hw.Writebacks-a.hw.Writebacks), n)
	v["hw.bus_bits_per_op"] = ratio(float64(b.hw.BusBits-a.hw.BusBits), n)
	classes := []struct {
		name  string
		class pinatubo.PlacementClass
	}{
		{"hw.intra_frac", pinatubo.PlaceIntraSubarray},
		{"hw.inter_sub_frac", pinatubo.PlaceInterSubarray},
		{"hw.inter_bank_frac", pinatubo.PlaceInterBank},
	}
	var byClass [3]float64
	var inMemory float64
	for i, c := range classes {
		byClass[i] = float64(b.hw.OpsByClass[c.class.String()] - a.hw.OpsByClass[c.class.String()])
		inMemory += byClass[i]
	}
	for i, c := range classes {
		v[c.name] = ratio(byClass[i], inMemory)
	}
	gets := float64(b.perf.SandboxPoolGets - a.perf.SandboxPoolGets)
	v["batch.pool_reuse_rate"] = ratio(float64(b.perf.SandboxPoolReuses-a.perf.SandboxPoolReuses), gets)
	v["sim_pj_per_bit"] = ratio((b.stats.EnergyJoules-a.stats.EnergyJoules)*1e12, bits)
}

// replays times the work the traced pass replays outside the run: the
// SECDED codec on one row of rowBits bits, and the replan on a twin of
// cfg.
func (p *pass) replays(cfg pinatubo.Config, rowBits int) error {
	enc, dec, err := replayECC(rowBits, p.opts.Seed)
	if err != nil {
		return err
	}
	p.layers["ecc.encode_row_us"], p.layers["ecc.decode_row_us"] = enc, dec
	ms, err := timeReplan(cfg)
	if err != nil {
		return err
	}
	p.layers["serve.replan_ms"] = ms
	return nil
}

// simLib records a closed loop's simulated figures from its ledger: the
// busy time per public call and the energy per processed bit.
func simLib(a, b counters, calls int64, bits float64) []Metric {
	return []Metric{
		{Name: "sim_ns_per_op", Unit: "ns", Value: ratio((b.stats.BusySeconds-a.stats.BusySeconds)*1e9, float64(calls))},
		{Name: "sim_pj_per_bit", Unit: "pJ/bit", Value: ratio((b.stats.EnergyJoules-a.stats.EnergyJoules)*1e12, bits)},
	}
}
