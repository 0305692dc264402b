// Command pinatubo is a small driver around the public API: it builds a
// simulated Pinatubo system, runs a bulk bitwise operation of the requested
// shape, and reports the DDR command sequence class, latency, energy and
// throughput — a quick way to explore the design space from the shell.
//
// Usage:
//
//	pinatubo -op or -rows 128 -bits 524288
//	pinatubo -op xor -bits 4096 -tech stt
//	pinatubo -batch 8 -op or -rows 128   # schedule 8 deep ORs as one batch
//	pinatubo -inspect            # print geometry and technology tables
//	pinatubo -showcmds -rows 4   # dump the DDR command sequence of the op
//	pinatubo -waveform           # render the CSA sensing transient (Fig. 6)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"pinatubo"
	"pinatubo/internal/analog"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

func main() {
	op := flag.String("op", "or", "operation: or, and, xor, not")
	rows := flag.Int("rows", 2, "operand rows (or: any >= 1; and/xor: 2; not: 1)")
	bits := flag.Int("bits", 1<<19, "bit-vector length")
	tech := flag.String("tech", "pcm", "technology: pcm, stt, reram, dram")
	inspect := flag.Bool("inspect", false, "print geometry and technology tables and exit")
	showCmds := flag.Bool("showcmds", false, "dump the DDR command sequence of the operation")
	waveform := flag.Bool("waveform", false, "render the CSA sensing transient and exit")
	seed := flag.Int64("seed", 1, "data seed")
	faultRate := flag.Float64("faultrate", 0, "sense-flip probability per bit at the margin floor (0 = no faults)")
	actFail := flag.Float64("actfail", 0, "transient activation failure probability per extra open row")
	wearLimit := flag.Int64("wearlimit", 0, "row programs before a stuck-at bit appears (0 = unlimited)")
	faultSeed := flag.Int64("faultseed", 1, "fault injection seed")
	drift := flag.Float64("drift", 0, "seconds of resistance drift before sensing (0 = fresh cells)")
	verify := flag.String("verify", "auto", "verification mode: auto, off, readback, ecc")
	plan := flag.Int("plan", 0, "plan concurrency headroom for -op at -faultrate with up to this many in-flight operations, instead of executing")
	arb := flag.String("arb", "fifo", "channel arbitration policy for -plan and -batch: fifo, oldest-ready")
	batch := flag.Int("batch", 0, "execute this many -op operations as one scheduled batch on a bank-spread geometry, instead of one at a time")
	flag.Parse()

	// 0 leaves planning or batching off; a negative count is a typo, not
	// a request to run one plain op.
	if *plan < 0 {
		fmt.Fprintf(os.Stderr, "pinatubo: -plan %d is negative\n", *plan)
		os.Exit(1)
	}
	if *batch < 0 {
		fmt.Fprintf(os.Stderr, "pinatubo: -batch %d is negative\n", *batch)
		os.Exit(1)
	}

	fc := pinatubo.FaultConfig{
		Seed:               *faultSeed,
		SenseFlipRate:      *faultRate,
		ActivationFailRate: *actFail,
		WearLimit:          *wearLimit,
		DriftSeconds:       *drift,
	}

	if *waveform {
		printWaveform()
		return
	}
	if *showCmds {
		if err := runShowCmds(*op, *rows, *bits); err != nil {
			fmt.Fprintln(os.Stderr, "pinatubo:", err)
			os.Exit(1)
		}
		return
	}
	if *plan > 0 {
		if err := runPlan(*op, *plan, *tech, fc, *verify, *arb); err != nil {
			fmt.Fprintln(os.Stderr, "pinatubo:", err)
			os.Exit(1)
		}
		return
	}
	if *batch > 0 {
		if err := runBatch(*op, *rows, *batch, *tech, *seed, fc, *verify, *arb); err != nil {
			fmt.Fprintln(os.Stderr, "pinatubo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*op, *rows, *bits, *tech, *inspect, *seed, fc, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "pinatubo:", err)
		os.Exit(1)
	}
}

// newConfig builds the default configuration with the fault knobs and
// the -verify and -tech flags applied.
func newConfig(techName, verifyName string, fc pinatubo.FaultConfig) (pinatubo.Config, error) {
	cfg := pinatubo.DefaultConfig()
	cfg.Fault = fc
	mode, err := parseVerify(verifyName)
	if err != nil {
		return cfg, err
	}
	cfg.Resilience.Verify = mode
	cfg.Tech, err = parseTech(techName)
	return cfg, err
}

// operandCount returns how many source rows op reads: two for AND and
// XOR, one for NOT, and the -rows count, at least 1, for OR.
func operandCount(op pinatubo.Op, rows int) (int, error) {
	switch op {
	case pinatubo.OpAnd, pinatubo.OpXor:
		return 2, nil
	case pinatubo.OpNot:
		return 1, nil
	default:
		if rows < 1 {
			return 0, fmt.Errorf("or needs at least 1 row")
		}
		return rows, nil
	}
}

// parseVerify maps the -verify flag onto the public mode enum.
func parseVerify(name string) (pinatubo.VerifyMode, error) {
	switch strings.ToLower(name) {
	case "auto":
		return pinatubo.VerifyAuto, nil
	case "off":
		return pinatubo.VerifyOff, nil
	case "readback":
		return pinatubo.VerifyReadback, nil
	case "ecc":
		return pinatubo.VerifyECC, nil
	default:
		return 0, fmt.Errorf("unknown verification mode %q", name)
	}
}

func run(opName string, rows, bits int, techName string, inspect bool, seed int64, fc pinatubo.FaultConfig, verifyName string) error {
	if inspect {
		printInspect()
		return nil
	}

	cfg, err := newConfig(techName, verifyName, fc)
	if err != nil {
		return err
	}
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("system: %v, %d-bit rank rows, one-step OR depth %d, verify %v\n",
		cfg.Tech, sys.RowBits(), sys.MaxORRows(), sys.VerifyMode())

	rng := rand.New(rand.NewSource(seed))
	alloc := func(n int) ([]*pinatubo.BitVector, error) {
		if bits <= sys.RowBits() {
			return sys.AllocGroup(n, bits)
		}
		out := make([]*pinatubo.BitVector, n)
		for i := range out {
			v, err := sys.Alloc(bits)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	op, err := parseOp(opName)
	if err != nil {
		return err
	}
	nops, err := operandCount(op, rows)
	if err != nil {
		return err
	}

	srcs, err := alloc(nops)
	if err != nil {
		return err
	}
	words := make([]uint64, (bits+63)/64)
	for _, v := range srcs {
		for i := range words {
			words[i] = rng.Uint64()
		}
		if _, err := sys.Write(v, words); err != nil {
			return err
		}
	}
	dst, err := sys.Alloc(bits)
	if err != nil {
		return err
	}

	res, err := sys.Apply(op, dst, srcs)
	if err != nil {
		return err
	}

	operandBytes := float64(nops) * float64(bits) / 8
	fmt.Printf("%s over %d row(s) of %d bits:\n", strings.ToUpper(opName), nops, bits)
	fmt.Printf("  class      %s\n", res.Class)
	fmt.Printf("  requests   %d\n", res.Requests)
	fmt.Printf("  latency    %v\n", res.Latency)
	fmt.Printf("  energy     %.3g J\n", res.EnergyJoules)
	fmt.Printf("  throughput %.1f GBps of operand data\n",
		operandBytes/res.Latency.Seconds()/1e9)

	if res.Retries > 0 || res.Degraded != "" {
		fmt.Printf("  resilience %d retries, degraded=%q, %d bits corrected\n",
			res.Retries, res.Degraded, res.BitsCorrected)
	}

	n, _, err := sys.Popcount(dst)
	if err != nil {
		return err
	}
	fmt.Printf("  result popcount %d / %d\n", n, bits)

	if st := sys.FaultStats(); st != (pinatubo.FaultStats{}) {
		fmt.Println("fault stats:")
		fmt.Printf("  injected   %d sense flips, %d activation faults, %d stuck rows (%d bits forced)\n",
			st.SenseFlips, st.ActivationFaults, st.StuckRows, st.StuckBitsForced)
		fmt.Printf("  recovered  %d verifies, %d retries, %d depth splits, %d inter / %d host fallbacks\n",
			st.Verifies, st.Retries, st.DepthReductions, st.InterFallbacks, st.HostFallbacks)
		fmt.Printf("  retired    %d rows, %d wrong bits intercepted\n",
			st.RowsRetired, st.BitsCorrected)
		if st.EccDecodes > 0 {
			fmt.Printf("  secded     %d syndrome decodes, %d bits corrected in-array, %d escalated\n",
				st.EccDecodes, st.EccCorrectedBits, st.EccUncorrectables)
		}
	}
	return nil
}

// parseTech maps the -tech flag onto the public technology enum.
func parseTech(name string) (pinatubo.Tech, error) {
	switch strings.ToLower(name) {
	case "pcm":
		return pinatubo.PCM, nil
	case "stt", "stt-mram":
		return pinatubo.STTMRAM, nil
	case "reram":
		return pinatubo.ReRAM, nil
	case "dram":
		return pinatubo.DRAM, nil
	default:
		return 0, fmt.Errorf("unknown technology %q", name)
	}
}

// parseOp maps the -op flag onto the public operation enum.
func parseOp(name string) (pinatubo.Op, error) {
	switch strings.ToLower(name) {
	case "or":
		return pinatubo.OpOr, nil
	case "and":
		return pinatubo.OpAnd, nil
	case "xor":
		return pinatubo.OpXor, nil
	case "not":
		return pinatubo.OpNot, nil
	default:
		return 0, fmt.Errorf("unknown op %q", name)
	}
}

// parseArb maps the -arb flag onto the public arbitration enum.
func parseArb(name string) (pinatubo.Arbiter, error) {
	switch strings.ToLower(name) {
	case "fifo":
		return pinatubo.ArbFIFO, nil
	case "oldest-ready", "oldestready":
		return pinatubo.ArbOldestReady, nil
	default:
		return 0, fmt.Errorf("unknown arbiter %q", name)
	}
}

// runPlan answers "how many of these should I keep in flight?" through the
// public planning API: the op's command traces (including any resilience
// expansions at the requested fault rate) replayed through the channel
// scheduler at increasing concurrency.
func runPlan(opName string, concurrency int, techName string, fc pinatubo.FaultConfig, verifyName, arbName string) error {
	cfg, err := newConfig(techName, verifyName, fc)
	if err != nil {
		return err
	}
	op, err := parseOp(opName)
	if err != nil {
		return err
	}
	arb, err := parseArb(arbName)
	if err != nil {
		return err
	}
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return err
	}
	rep, err := sys.Plan(op, concurrency, fc.SenseFlipRate, pinatubo.WithArbiter(arb))
	if err != nil {
		return err
	}
	fmt.Printf("plan: %v on %v at fault rate %g under %v arbitration (%d replication(s))\n",
		rep.Op, cfg.Tech, rep.FaultRate, rep.Arb, rep.Replications)
	fmt.Printf("  %-6s %14s %12s %12s %8s\n", "k", "ops/s", "p50", "p99", "bus")
	for _, p := range rep.Points {
		marker := ""
		if p.Concurrency == rep.SaturationPoint {
			marker = "  <- saturation"
		}
		fmt.Printf("  %-6d %14.0f %12v %12v %7.0f%%%s\n",
			p.Concurrency, p.Throughput, p.Latency.P50, p.Latency.P99,
			100*p.BusUtilisation, marker)
	}
	fmt.Printf("  saturates at %d in flight, headroom %.2fx over one at a time\n",
		rep.SaturationPoint, rep.Headroom)
	return nil
}

// runBatch executes n operations of the requested shape as one scheduled
// batch through the public System.Batch API, on a single-channel geometry
// with one subarray per bank so each operation's rows land in their own
// bank and the event-driven scheduler can overlap them.
func runBatch(opName string, rows, n int, techName string, seed int64, fc pinatubo.FaultConfig, verifyName, arbName string) error {
	cfg, err := newConfig(techName, verifyName, fc)
	if err != nil {
		return err
	}
	op, err := parseOp(opName)
	if err != nil {
		return err
	}
	arb, err := parseArb(arbName)
	if err != nil {
		return err
	}
	cfg.Geometry = pinatubo.Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     16,
		SubarraysPerBank: 1,
		MatsPerSubarray:  16,
		RowsPerSubarray:  256,
		MatRowBits:       4096,
		MuxRatio:         32,
	}
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return err
	}

	nsrc, err := operandCount(op, rows)
	if err != nil {
		return err
	}
	if op == pinatubo.OpOr {
		// Each op's sources share a subarray: cap an OR at one step's depth.
		nsrc = min(nsrc, sys.MaxORRows())
	}

	bits := sys.RowBits()
	rng := rand.New(rand.NewSource(seed))
	words := make([]uint64, (bits+63)/64)
	ops := make([]pinatubo.BatchOp, n)
	for i := range ops {
		srcs, err := sys.AllocGroup(nsrc, bits)
		if err != nil {
			return fmt.Errorf("allocating op %d (the spread geometry holds 16 one-op banks): %w", i, err)
		}
		for _, v := range srcs {
			for j := range words {
				words[j] = rng.Uint64()
			}
			if _, err := sys.Write(v, words); err != nil {
				return err
			}
		}
		dst, err := sys.Alloc(bits)
		if err != nil {
			return err
		}
		ops[i] = pinatubo.BatchOp{Op: op, Dst: dst, Srcs: srcs}
		// Pad out the rest of the subarray (its tail rows are reserved for
		// scratch and the backend's compute group) so the next op's rows
		// land in the next bank instead of packing behind this op and
		// serialising on its bank resource.
		usable := sys.UsableRowsPerSubarray()
		if pad := usable - (nsrc + 1); pad > 0 && i < n-1 {
			if _, err := sys.AllocGroup(pad, bits); err != nil {
				return err
			}
		}
	}

	br, err := sys.Batch(ops, pinatubo.WithArbiter(arb))
	if err != nil {
		return err
	}
	fmt.Printf("batch: %d × %v over %d row(s) of %d bits on %v, %v arbitration\n",
		n, op, nsrc, bits, cfg.Tech, br.Arb)
	for i, r := range br.Results {
		fmt.Printf("  op %-3d class %-14s latency %10v  done at %10v\n",
			i, r.Class, r.Latency, br.Completion[i])
	}
	fmt.Printf("  sequential %v, makespan %v, speedup %.2fx, %d shard(s)\n",
		br.Sequential, br.Makespan, br.Speedup, br.Shards)
	return nil
}

func printInspect() {
	geo := memarch.Default()
	fmt.Println("geometry (default):")
	fmt.Printf("  channels=%d ranks/ch=%d chips/rank=%d banks/chip=%d\n",
		geo.Channels, geo.RanksPerChannel, geo.ChipsPerRank, geo.BanksPerChip)
	fmt.Printf("  subarrays/bank=%d mats/subarray=%d rows/subarray=%d\n",
		geo.SubarraysPerBank, geo.MatsPerSubarray, geo.RowsPerSubarray)
	fmt.Printf("  mat row=%d bits, mux=%d:1, rank row=%d bits, sense width=%d bits\n",
		geo.MatRowBits, geo.MuxRatio, geo.RowBits(), geo.SenseWidthBits())
	fmt.Printf("  capacity %.1f GiB\n", float64(geo.CapacityBits())/8/(1<<30))
	fmt.Println("technologies:")
	for _, p := range append(nvm.All(), nvm.Get(nvm.DRAM)) {
		fmt.Printf("  %-9s Rlow=%-8.0f Rhigh=%-9.0f tRCD=%.1fns tCL=%.1fns tWR=%.1fns maxRows=%d\n",
			p.Tech, p.Cell.RLow, p.Cell.RHigh,
			p.Timing.TRCD*1e9, p.Timing.TCL*1e9, p.Timing.TWR*1e9, p.MaxOpenRows)
	}
}

// runShowCmds executes one op on a bare controller and dumps the DDR
// command sequence the controller issued — the paper's "only commands and
// addresses on the bus" property made visible.
func runShowCmds(opName string, rows, bits int) error {
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(nvm.PCM))
	if err != nil {
		return err
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		return err
	}
	var op sense.Op
	n := rows
	switch strings.ToLower(opName) {
	case "or":
		op = sense.OpOR
	case "and":
		op, n = sense.OpAND, 2
	case "xor":
		op, n = sense.OpXOR, 2
	case "not":
		op, n = sense.OpINV, 1
	default:
		return fmt.Errorf("unknown op %q", opName)
	}
	srcs := make([]memarch.RowAddr, n)
	for i := range srcs {
		srcs[i] = memarch.RowAddr{Subarray: 0, Row: i}
	}
	dst := memarch.RowAddr{Subarray: 0, Row: memarch.Default().RowsPerSubarray - 1}
	res, err := ctl.Execute(op, srcs, bits, &dst)
	if err != nil {
		return err
	}
	tech := nvm.Get(nvm.PCM)
	bus := ddr.DefaultBus()
	fmt.Printf("%v over %d row(s), %d bits → %s, %.4g s total\n",
		op, n, bits, res.Class, res.Seconds)
	t := 0.0
	for i, c := range res.Commands {
		d := ddr.CmdTime(c, tech.Timing, bus)
		fmt.Printf("  %3d  t=%8.2fns  %-10v %v", i, t*1e9, c.Kind, c.Addr)
		if c.Bits > 0 {
			fmt.Printf("  (%d bits)", c.Bits)
		}
		fmt.Println()
		t += d
	}
	return nil
}

// printWaveform renders the three-phase CSA transient for a weakest-"1"
// 128-row OR (the hardest pattern) as an ASCII plot — the Fig. 6 HSPICE
// panel, regenerated.
func printWaveform() {
	cfg := analog.DefaultSenseConfig()
	cell := nvm.Get(nvm.PCM).Cell
	iBL := cfg.VRead / analog.BLResistance(cell, 1, 127)
	iRef := cfg.VRead / analog.RefOR(cell, 128)
	csa := analog.DefaultCSAParams()
	trace, out := csa.Transient(iBL, iRef, 60)

	fmt.Println("CSA transient — 128-row OR, weakest '1' pattern (one low cell)")
	fmt.Printf("iBL=%.3gA iRef=%.3gA → output %v\n", iBL, iRef, out)
	const width = 40
	for _, p := range trace {
		vc := int(p.VC / 0.8 * width)
		vr := int(p.VR / 0.8 * width)
		line := make([]byte, width+1)
		for i := range line {
			line[i] = ' '
		}
		if vr >= 0 && vr <= width {
			line[vr] = 'r'
		}
		if vc >= 0 && vc <= width {
			line[vc] = 'C'
		}
		fmt.Printf("%7.2fns |%s| %-26s\n", p.T*1e9, line, p.Phase)
	}
	fmt.Println("(C = cell-side node, r = reference-side node; rails 0..0.8 V)")
}
