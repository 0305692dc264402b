package pim

// This file is the controller half of the in-array SECDED verification path
// (the codec lives in internal/ecc, the escalation policy in internal/pimrt).
// Check bits occupy dedicated spare columns of each rank row — the ECC
// DIMM's ninth chip folded into the array — so they are sensed and
// programmed by the same wordline activations as the data they protect:
//
//   - Programming. A host write or an op writeback programs the spare
//     columns in the same tWR window as the data, so check-bit storage
//     costs write energy but no extra latency. The check bits themselves
//     come from the encoder trees at the bank row buffer (OR/AND results:
//     parity is not GF(2)-linear under either, so the WD-bypass writeback
//     must regenerate from the result stream) or from the spare columns of
//     the operands (XOR/INV/copy: the code is linear, so the spare-column
//     sense amplifiers compute the result's check bits directly — the fast
//     path TestXorLinearity pins).
//
//   - Verification. PCM programming is inherently iterative
//     program-and-verify — tWR already includes the sense passes that
//     confirm each cell reached its target resistance. CorrectOrEscalate
//     rides that last verify sense: the data and spare columns are already
//     on the sense amplifiers, so the marginal cost of checking them is the
//     syndrome pipeline (one command-bus slot per column group) plus the
//     decode logic energy — not the full read-back an external checker pays.
//
// The check bits of an op destination are encoded from the digital
// reference (golden) result, the same idealisation VerifyAgainst makes for
// its comparison value; the spare columns' own failure modes stay honest
// because stuck-at wear and sense flips are injected on them exactly as on
// data columns (fault.CorruptStoredOffset / FlipSensed).
//
// The stored check words are part of the row's record in the memory
// (memarch.Memory.Check / SetCheck). They are never modified once stored:
// every program stores the fresh slice ecc.EncodeRow returns, and every
// decode works on a scratch copy, so a batch sandbox that borrows the row
// shares them with the live memory.

import (
	"fmt"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ecc"
	"pinatubo/internal/energy"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/sense"
)

// EnableECC attaches a SECDED codec to the controller: every subsequent
// host write and ECCProgram call maintains spare-column check bits for the
// written row. Passing nil disables the path.
func (c *Controller) EnableECC(codec *ecc.Codec) { c.codec = codec }

// ECCCodec returns the attached codec (nil when ECC is off).
func (c *Controller) ECCCodec() *ecc.Codec { return c.codec }

// ECCCost is the latency/energy bill of one check-bit maintenance step.
type ECCCost struct {
	Seconds float64
	Energy  energy.Meter
}

// ECCVerification reports one syndrome-decode verification or read
// correction pass.
type ECCVerification struct {
	// OK is true when every group decoded clean or corrected, and (for
	// CorrectOrEscalate) the corrected row matches the digital reference.
	OK bool
	// CorrectedBits counts single-bit errors fixed this pass (data bits
	// repaired plus check-bit errors absorbed).
	CorrectedBits int
	// Rewritten is true when the stored row itself was repaired in place.
	Rewritten bool
	// Uncorrectable is true on a detected-uncorrectable (double-bit)
	// syndrome, or when the decoded row still disagrees with the reference:
	// the ECC path cannot fix this row and the caller must escalate.
	Uncorrectable bool
	// Seconds and Energy are the cost of the pass.
	Seconds float64
	Energy  energy.Meter
}

// eccCorruptSpare forces worn spare-column cells into freshly-programmed
// check words. The spare columns share the data row's wear record (one
// physical row, one program pulse); their stuck positions are those at or
// past the data row width.
func (c *Controller) eccCorruptSpare(addr memarch.RowAddr, check []uint64) {
	if c.inj == nil {
		return
	}
	if stuck := c.mem.Wear(addr).Stuck; len(stuck) > 0 {
		c.inj.CorruptStoredOffset(stuck, check, c.mem.Geometry().RowBits())
	}
}

// eccProgramHost encodes and stores the check bits of a host-written row,
// charging the encoder and spare programming into res. The spare columns
// program inside the same tWR window as the data, so no latency is added.
func (c *Controller) eccProgramHost(addr memarch.RowAddr, data []uint64, bits int, res *Result) {
	w := bitvec.WordsFor(bits)
	padded := data
	if len(padded) < w {
		padded = make([]uint64, w)
		copy(padded, data)
	}
	check := c.codec.EncodeRow(padded, bits)
	e := c.mem.Tech().Energy
	res.Energy.Add(energy.ECCLogic, float64(bits)*e.ECCPerBit)
	res.Energy.Add(energy.WriteDriver, float64(c.codec.CheckRowBits(bits))*e.WritePerBit)
	c.eccCorruptSpare(addr, check)
	c.mem.SetCheck(addr, bits, check)
}

// ECCProgram regenerates the spare-column check bits of a just-written op
// destination. golden is the digital reference result the writeback aimed
// to store; op and nsrc describe the operation, selecting between the two
// physical paths:
//
//   - XOR / INV / READ(copy): the code is GF(2)-linear (INV is affine), so
//     the operands' spare columns run through the same sensing micro-steps
//     as the data and the result's check bits land on the spare write
//     drivers directly. Costs spare sensing + programming energy, zero
//     extra latency, and is exposed to multi-row sense flips like the data.
//
//   - OR / AND: parity is not linear under either, so the encoder trees at
//     the bank row buffer recompute the check bits from the result stream
//     during writeback. Costs encode logic + spare programming energy plus
//     one command-bus slot per column group to stream the syndrome
//     pipeline.
func (c *Controller) ECCProgram(dst memarch.RowAddr, golden []uint64, bits int, op sense.Op, nsrc int) (ECCCost, error) {
	var cost ECCCost
	if c.codec == nil {
		return cost, fmt.Errorf("pim: ECCProgram with ECC disabled")
	}
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return cost, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	if !geo.Valid(dst) {
		return cost, fmt.Errorf("pim: destination %v outside geometry", dst)
	}
	if w := bitvec.WordsFor(bits); len(golden) < w {
		return cost, fmt.Errorf("pim: reference of %d words for a %d-bit encode", len(golden), bits)
	}
	check := c.codec.EncodeRow(golden, bits)
	e := c.mem.Tech().Energy
	cb := float64(c.codec.CheckRowBits(bits))
	switch op {
	case sense.OpXOR, sense.OpINV, sense.OpRead:
		// Linear fast path: spare columns of the open operand rows sense the
		// result's check bits alongside the data micro-steps.
		n := float64(nsrc)
		if n < 1 {
			n = 1
		}
		cost.Energy.Add(energy.CellArray, cb*e.ActPerBit)
		cost.Energy.Add(energy.SenseAmp,
			float64(op.SenseSteps())*cb*(e.SensePerBit+n*e.SenseRowAdd))
		if c.inj != nil {
			rows := nsrc
			if rows < 1 {
				rows = 1
			}
			c.inj.FlipSensed(op, rows, c.codec.CheckRowBits(bits), check)
		}
	case sense.OpOR, sense.OpAND:
		// Nonlinear: regenerate at the row-buffer encoder trees.
		cost.Seconds = float64(backend.SenseGroups(geo, bits)) * c.mem.Tech().Timing.TCMD
		cost.Energy.Add(energy.ECCLogic, float64(bits)*e.ECCPerBit)
	default:
		return cost, fmt.Errorf("pim: ECCProgram of unknown op %d", int(op))
	}
	cost.Energy.Add(energy.WriteDriver, cb*e.WritePerBit)
	c.eccCorruptSpare(dst, check)
	c.mem.SetCheck(dst, bits, check)
	return cost, nil
}

// CorrectOrEscalate is the ECC verification of a just-programmed
// destination row: decode the stored data against its spare-column check
// bits on the program-verify sense pass, repair single-bit errors in place,
// and report anything SECDED cannot fix as Uncorrectable so the caller can
// escalate to the read-back degradation ladder. golden is the digital
// reference; a decoded row that still disagrees with it (aliased multi-bit
// error) also escalates rather than being trusted. A pass that returns no
// error counts into the ledger as one decode, its corrected bits, and an
// uncorrectable syndrome when it escalates.
func (c *Controller) CorrectOrEscalate(dst memarch.RowAddr, bits int, golden []uint64) (ECCVerification, error) {
	if c.codec == nil {
		return ECCVerification{}, fmt.Errorf("pim: CorrectOrEscalate with ECC disabled")
	}
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return ECCVerification{}, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	if !geo.Valid(dst) {
		return ECCVerification{}, fmt.Errorf("pim: destination %v outside geometry", dst)
	}
	w := bitvec.WordsFor(bits)
	if len(golden) < w {
		return ECCVerification{}, fmt.Errorf("pim: reference of %d words for a %d-bit check", len(golden), bits)
	}
	checkBits, checkWords, ok := c.mem.Check(dst)
	if !ok || checkBits != bits {
		return ECCVerification{}, fmt.Errorf("pim: no %d-bit check bits stored for %v (ECCProgram not run?)", bits, dst)
	}

	var v ECCVerification
	e := c.mem.Tech().Energy
	t := c.mem.Tech().Timing
	groups := backend.SenseGroups(geo, bits)
	cbBits := c.codec.CheckRowBits(bits)
	// Cost: the data and spare columns are already on the SAs for the final
	// program-verify pass; ECC adds the syndrome pipeline (one command slot
	// per group), the re-verify sense of data+spare, and the decode trees.
	v.Seconds = float64(groups) * t.TCMD
	v.Energy.Add(energy.SenseAmp, float64(bits+cbBits)*e.SensePerBit)
	v.Energy.Add(energy.ECCLogic, float64(bits)*e.ECCPerBit)
	c.led.Count[ledger.SenseSteps] += int64(groups)

	// Sense the stored row and its check bits (single-row read margins).
	// Both live only for the decode, so they run on controller scratch.
	stored := c.mem.PeekRow(dst)[:w]
	c.eccData = scratchWords(c.eccData, w)
	data := c.eccData
	copy(data, stored)
	c.eccCheck = scratchWords(c.eccCheck, len(checkWords))
	check := c.eccCheck
	copy(check, checkWords)
	if c.inj != nil {
		c.inj.FlipSensed(sense.OpRead, 1, bits, data)
		c.inj.FlipSensed(sense.OpRead, 1, cbBits, check)
	}

	r := c.codec.DecodeRow(data, check, bits)
	v.CorrectedBits = r.CorrectedData + r.CorrectedCheck
	maskTail(data, bits)
	switch {
	case !r.Clean():
		v.Uncorrectable = true
	case !bitvec.EqualWords(data, golden[:w], bits):
		// The decode produced a valid codeword; it must also be the
		// oracle's answer. An aliased multi-bit error that decodes "clean"
		// is caught here and escalated instead of silently accepted.
		v.Uncorrectable = true
	case r.CorrectedData > 0 && !bitvec.EqualWords(stored, data, bits):
		// Repair the stored row when the corrections were real cell errors
		// (not flips of this verify pass's own sensing): one extra program
		// pulse.
		v.Rewritten = true
		v.Seconds += t.TWR
		v.Energy.Add(energy.WriteDriver, float64(bits)*e.WritePerBit)
		c.led.Count[ledger.Writebacks]++
		if err := c.store(dst, data); err != nil {
			return ECCVerification{}, err
		}
		// Stuck data cells force themselves back; SECDED cannot hold this
		// row and the caller must escalate (retire / ladder).
		v.Uncorrectable = !bitvec.EqualWords(c.mem.PeekRow(dst)[:w], golden[:w], bits)
	}
	v.OK = !v.Uncorrectable
	c.countDecode(&v)
	return v, nil
}

// countDecode counts one syndrome decode into the ledger: the decode, the
// bits it corrected, and an uncorrectable syndrome when it escalated.
func (c *Controller) countDecode(v *ECCVerification) {
	c.led.Count[ledger.EccDecodes]++
	c.led.Count[ledger.EccCorrectedBits] += int64(v.CorrectedBits)
	if v.Uncorrectable {
		c.led.Count[ledger.EccUncorrectables]++
	}
}

// ECCCorrectRead decodes a host read's sensed words against the row's
// spare-column check bits, correcting single-bit errors in place before the
// burst reaches the bus — the conventional DIMM-side use of the code. The
// spare columns ride the read's own activation; the marginal cost is their
// sensing, the decode trees, and one command slot per group. Rows without
// stored check bits (never written through the ECC path, or written at a
// different vector length) pass through untouched at zero cost and count
// nothing; every other read counts its decode as CorrectOrEscalate does.
func (c *Controller) ECCCorrectRead(addr memarch.RowAddr, bits int, sensed []uint64) (ECCVerification, error) {
	if c.codec == nil {
		return ECCVerification{}, fmt.Errorf("pim: ECCCorrectRead with ECC disabled")
	}
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return ECCVerification{}, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	w := bitvec.WordsFor(bits)
	if len(sensed) < w {
		return ECCVerification{}, fmt.Errorf("pim: %d sensed words for a %d-bit read", len(sensed), bits)
	}
	checkBits, checkWords, ok := c.mem.Check(addr)
	if !ok || checkBits != bits {
		return ECCVerification{OK: true}, nil
	}
	var v ECCVerification
	e := c.mem.Tech().Energy
	cbBits := c.codec.CheckRowBits(bits)
	groups := backend.SenseGroups(geo, bits)
	v.Seconds = float64(groups) * c.mem.Tech().Timing.TCMD
	v.Energy.Add(energy.SenseAmp, float64(cbBits)*e.SensePerBit)
	v.Energy.Add(energy.ECCLogic, float64(bits)*e.ECCPerBit)

	c.eccCheck = scratchWords(c.eccCheck, len(checkWords))
	check := c.eccCheck
	copy(check, checkWords)
	if c.inj != nil {
		c.inj.FlipSensed(sense.OpRead, 1, cbBits, check)
	}
	r := c.codec.DecodeRow(sensed, check, bits)
	v.CorrectedBits = r.CorrectedData + r.CorrectedCheck
	v.Uncorrectable = !r.Clean()
	v.OK = r.Clean()
	c.countDecode(&v)
	return v, nil
}

// ECCRowBits returns the injector row width covering data plus spare
// columns for a geometry under the codec — the width fault.New needs so
// stuck-at positions can land in the spare stripe too.
func ECCRowBits(geo memarch.Geometry, codec *ecc.Codec) int {
	return geo.RowBits() + codec.CheckRowBits(geo.RowBits())
}
