package pinatubo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"pinatubo/internal/bitvec"
)

// faultPin is everything TestFaultyProgramPinned pins for one
// configuration: the three counter snapshots, the resilience outcome its
// Apply calls reported, and a SHA-256 over the words of every read, in
// program order.
type faultPin struct {
	stats   Stats
	hw      HardwareCounters
	faults  FaultStats
	applies applyPin
	reads   string
}

// applyPin sums the resilience outcome of a program's Apply Results:
// their retries, corrected bits, votes and outvoted bits, and how many
// Results named each degradation rung ("" for none).
type applyPin struct {
	retries       int
	bitsCorrected int64
	votes         int
	bitsOutvoted  int64
	degraded      map[string]int
}

func (p *applyPin) add(r Result) {
	p.retries += r.Retries
	p.bitsCorrected += r.BitsCorrected
	p.votes += r.Votes
	p.bitsOutvoted += r.BitsOutvoted
	if p.degraded == nil {
		p.degraded = map[string]int{}
	}
	p.degraded[r.Degraded]++
}

// pinGeometry is a small organisation with two banks of two subarrays, so
// a fixed program reaches all three placement classes and still leaves a
// subarray of spare rows for the wear model's retirements.
func pinGeometry() Geometry {
	return Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     1,
		BanksPerChip:     2,
		SubarraysPerBank: 2,
		MatsPerSubarray:  1,
		RowsPerSubarray:  32,
		MatRowBits:       1024,
		MuxRatio:         8,
	}
}

// runFaultPinProgram runs one fixed program of ORs, ANDs, XORs, NOTs, host
// rewrites and reads on a PCM system with sense flips, activation faults
// and wear all injected, checks every read against a host model, and
// returns what the pin compares.
func runFaultPinProgram(t *testing.T, rc ResilienceConfig) faultPin {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Geometry = pinGeometry()
	cfg.Fault = FaultConfig{Seed: 23, SenseFlipRate: 5e-2, ActivationFailRate: 0.1, WearLimit: 5}
	cfg.Resilience = rc
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1000
	w := bitvec.WordsFor(bits)
	tail := uint64(1)<<(bits%64) - 1

	// Each group fills its own subarray: A in bank 0 subarray 0, B in bank
	// 0 subarray 1, C in bank 1 subarray 0. Bank 1 subarray 1 stays free
	// for the rows the wear model retires.
	per := s.UsableRowsPerSubarray()
	if rc.Replicate > 1 {
		per /= rc.Replicate
	}
	var groups [3][]*BitVector
	for i := range groups {
		if groups[i], err = s.AllocGroup(per, bits); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := groups[0], groups[1], groups[2]

	model := map[*BitVector][]uint64{}
	var applies applyPin
	rng := rand.New(rand.NewSource(29))
	write := func(v *BitVector) {
		t.Helper()
		words := make([]uint64, w)
		for i := range words {
			words[i] = rng.Uint64()
		}
		words[w-1] &= tail
		if _, err := s.Write(v, words); err != nil {
			t.Fatalf("write: %v", err)
		}
		model[v] = words
	}
	apply := func(op Op, dst *BitVector, srcs ...*BitVector) {
		t.Helper()
		res, err := s.Apply(op, dst, srcs)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		applies.add(res)
		out := make([]uint64, w)
		copy(out, model[srcs[0]])
		for _, src := range srcs[1:] {
			for i, x := range model[src] {
				switch op {
				case OpOr:
					out[i] |= x
				case OpAnd:
					out[i] &= x
				case OpXor:
					out[i] ^= x
				}
			}
		}
		if op == OpNot {
			for i := range out {
				out[i] = ^out[i]
			}
			out[w-1] &= tail
		}
		model[dst] = out
	}
	digest := sha256.New()
	read := func(v *BitVector) {
		t.Helper()
		got, _, err := s.Read(v)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		// Read hands back the whole last word; bits past the vector's
		// length are not part of the result (NOT sets them).
		for i := range got {
			x := got[i]
			if i == w-1 {
				x &= tail
			}
			if x != model[v][i] {
				t.Fatalf("read word %d: %x, want %x", i, x, model[v][i])
			}
		}
		for _, x := range got {
			digest.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
	}

	for _, v := range [][]*BitVector{a[:8], b[:4], c[:4]} {
		for _, x := range v {
			write(x)
		}
	}
	for round := 0; round < 6; round++ {
		apply(OpOr, a[7], a[:7]...)         // intra-subarray, 7 rows
		apply(OpAnd, b[0], a[0], b[1])      // inter-subarray
		apply(OpXor, c[0], a[1], c[1])      // inter-bank
		apply(OpNot, a[6], b[2])            // one row, result crosses subarrays
		apply(OpOr, b[3], a[2], b[1], c[2]) // inter-bank OR
		apply(OpAnd, a[5], a[3], a[4])      // intra-subarray AND
		apply(OpXor, c[3], c[1], c[2])      // intra-subarray XOR
		for _, v := range []*BitVector{a[7], b[0], c[0], a[6], b[3], a[5], c[3]} {
			read(v)
		}
		write(a[round%4])
		write(b[1])
		write(c[1+round%2])
	}
	return faultPin{
		stats:   s.Stats(),
		hw:      s.HardwareCounters(),
		faults:  s.FaultStats(),
		applies: applies,
		reads:   hex.EncodeToString(digest.Sum(nil)),
	}
}

// TestFaultyProgramPinned pins, exactly, what one fault-injected program
// leaves behind under read-back verification, SECDED and R=3 replication:
// Stats, HardwareCounters, FaultStats, the resilience outcome its Apply
// Results reported and a digest of every read. The counters depend on
// every injector draw, so this fails if any execution path draws its
// faults in a different order, skips a draw, or prices a request
// differently. The Apply sums fail if a Result stops reporting what its
// op did: the R=3 case reaches the depth-split rung and the vote, the ECC
// case SECDED corrections, all three the inter-digital rung.
func TestFaultyProgramPinned(t *testing.T) {
	// Every read returns the model's words, so all three share one digest.
	const pinReads = "fe32c638d5b79af5c362752050de189de2580c6e3d68a3eb7de5c232348d47f1"

	cases := []struct {
		name string
		rc   ResilienceConfig
		want faultPin
	}{
		{"readback", ResilienceConfig{Verify: VerifyReadback}, faultPin{
			stats: Stats{Ops: map[string]int64{"host-read": 42, "host-write": 34, "inter-bank": 19, "inter-subarray": 4, "intra-subarray": 19},
				Requests: 175, BusySeconds: 7.502426093750002e-05, EnergyJoules: 6.355248000000004e-06},
			hw: HardwareCounters{OpsByClass: map[string]int64{"inter-bank": 21, "inter-subarray": 18, "intra-subarray": 137},
				Activations: 659, SenseSteps: 4536, Writebacks: 134, BusBits: 211000},
			faults: FaultStats{
				SenseFlips: 321, ActivationFaults: 17, StuckRows: 14, StuckBitsForced: 14, RowWrites: 134,
				Verifies: 176, Retries: 56, DepthReductions: 0, InterFallbacks: 12, HostFallbacks: 0,
				RowsRetired: 14, BitsCorrected: 331, EccDecodes: 0, EccCorrectedBits: 0, EccUncorrectables: 0,
				Votes: 0, BitsOutvoted: 0,
			},
			applies: applyPin{retries: 55, bitsCorrected: 330,
				degraded: map[string]int{"": 30, "inter-digital": 12}},
			reads: pinReads,
		}},
		{"ecc", ResilienceConfig{Verify: VerifyECC}, faultPin{
			stats: Stats{Ops: map[string]int64{"host-read": 42, "host-write": 34, "inter-bank": 17, "inter-subarray": 6, "intra-subarray": 19},
				Requests: 187, BusySeconds: 6.472987031250002e-05, EnergyJoules: 5.333447600000004e-06},
			hw: HardwareCounters{OpsByClass: map[string]int64{"inter-bank": 25, "inter-subarray": 18, "intra-subarray": 145},
				Activations: 502, SenseSteps: 3936, Writebacks: 157, BusBits: 135000},
			faults: FaultStats{
				SenseFlips: 402, ActivationFaults: 16, StuckRows: 14, StuckBitsForced: 31, RowWrites: 157,
				Verifies: 100, Retries: 49, DepthReductions: 1, InterFallbacks: 10, HostFallbacks: 0,
				RowsRetired: 13, BitsCorrected: 320, EccDecodes: 130, EccCorrectedBits: 78, EccUncorrectables: 17,
				Votes: 0, BitsOutvoted: 0,
			},
			applies: applyPin{retries: 48, bitsCorrected: 393,
				degraded: map[string]int{"": 31, "depth-split": 1, "inter-digital": 10}},
			reads: pinReads,
		}},
		{"replicate3", ResilienceConfig{Verify: VerifyReadback, Replicate: 3}, faultPin{
			stats: Stats{Ops: map[string]int64{"host-read": 42, "host-write": 34, "inter-bank": 12, "inter-subarray": 6, "intra-subarray": 24},
				Requests: 239, BusySeconds: 9.420999218750001e-05, EnergyJoules: 6.601384000000007e-06},
			hw: HardwareCounters{OpsByClass: map[string]int64{"inter-bank": 16, "inter-subarray": 8, "intra-subarray": 283},
				Activations: 745, SenseSteps: 4344, Writebacks: 265, BusBits: 235000},
			faults: FaultStats{
				SenseFlips: 321, ActivationFaults: 44, StuckRows: 4, StuckBitsForced: 8, RowWrites: 265,
				Verifies: 132, Retries: 38, DepthReductions: 6, InterFallbacks: 2, HostFallbacks: 0,
				RowsRetired: 1, BitsCorrected: 2, EccDecodes: 0, EccCorrectedBits: 0, EccUncorrectables: 0,
				Votes: 32, BitsOutvoted: 287,
			},
			applies: applyPin{retries: 38, bitsCorrected: 2, votes: 32, bitsOutvoted: 287,
				degraded: map[string]int{"": 36, "depth-split": 4, "inter-digital": 2}},
			reads: pinReads,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFaultPinProgram(t, tc.rc)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("pinned outcome changed:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// runChainedRestoreProgram runs a 9-operand OR on STT-MRAM, whose depth
// of 2 chains it through eight links that each fold one operand into the
// destination. Sense flips and wear make links fail verification, so a
// link retries after restoring the accumulator from the previous link's
// verified words. Operands are sparse, so the accumulator and the link's
// own result differ in many bits: a restore that wrote anything but the
// previous link's words would force a different set of stuck-at cells.
func runChainedRestoreProgram(t *testing.T) faultPin {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Tech = STTMRAM
	cfg.Geometry = pinGeometry()
	cfg.Fault = FaultConfig{Seed: 31, SenseFlipRate: 2e-2, ActivationFailRate: 0.2, WearLimit: 4}
	cfg.Resilience = ResilienceConfig{Verify: VerifyReadback}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1000
	w := bitvec.WordsFor(bits)
	tail := uint64(1)<<(bits%64) - 1
	vs, err := s.AllocGroup(10, bits)
	if err != nil {
		t.Fatal(err)
	}
	dst, srcs := vs[0], vs[1:]
	model := make([][]uint64, len(srcs))
	rng := rand.New(rand.NewSource(37))
	write := func(i int) {
		t.Helper()
		words := make([]uint64, w)
		for j := range words {
			words[j] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		words[w-1] &= tail
		if _, err := s.Write(srcs[i], words); err != nil {
			t.Fatalf("write: %v", err)
		}
		model[i] = words
	}
	for i := range srcs {
		write(i)
	}
	digest := sha256.New()
	var applies applyPin
	for round := 0; round < 12; round++ {
		res, err := s.Apply(OpOr, dst, srcs)
		if err != nil {
			t.Fatalf("round %d OR: %v", round, err)
		}
		applies.add(res)
		got, _, err := s.Read(dst)
		if err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		for i := range got {
			var want uint64
			for _, m := range model {
				want |= m[i]
			}
			if got[i] != want {
				t.Fatalf("round %d word %d: %x, want %x", round, i, got[i], want)
			}
			digest.Write(binary.LittleEndian.AppendUint64(nil, got[i]))
		}
		write(round % len(srcs))
	}
	return faultPin{
		stats:   s.Stats(),
		hw:      s.HardwareCounters(),
		faults:  s.FaultStats(),
		applies: applies,
		reads:   hex.EncodeToString(digest.Sum(nil)),
	}
}

// TestChainedRestorePinned pins, exactly, what the chained OR of
// runChainedRestoreProgram leaves behind. Every link after the first
// hands the previous link's verified words to the next as its restore
// checkpoint, so this fails if a link's own reference ever overwrites
// the checkpoint it may still have to write back. It is the pin whose
// Apply Results reach the host-cpu rung.
func TestChainedRestorePinned(t *testing.T) {
	want := faultPin{
		stats: Stats{Ops: map[string]int64{"host-read": 12, "host-write": 21, "intra-subarray": 12},
			Requests: 401, BusySeconds: 6.344018750000003e-05, EnergyJoules: 1.2320610999999992e-05},
		hw: HardwareCounters{OpsByClass: map[string]int64{"inter-subarray": 130, "intra-subarray": 271},
			Activations: 1357, SenseSteps: 8880, Writebacks: 377, BusBits: 433000},
		faults: FaultStats{
			SenseFlips: 240, ActivationFaults: 30, StuckRows: 40, StuckBitsForced: 109, RowWrites: 377,
			Verifies: 275, Retries: 143, DepthReductions: 0, InterFallbacks: 27, HostFallbacks: 6,
			RowsRetired: 40, BitsCorrected: 324, EccDecodes: 0, EccCorrectedBits: 0, EccUncorrectables: 0,
			Votes: 0, BitsOutvoted: 0,
		},
		applies: applyPin{retries: 143, bitsCorrected: 324,
			degraded: map[string]int{"": 3, "host-cpu": 4, "inter-digital": 5}},
		reads: "8902373e53dd3e13d69e0090d3d85d0b33d751117d28d1319d1ee996f1f06857",
	}
	if got := runChainedRestoreProgram(t); !reflect.DeepEqual(got, want) {
		t.Errorf("pinned outcome changed:\n got %#v\nwant %#v", got, want)
	}
}
