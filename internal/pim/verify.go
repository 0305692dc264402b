package pim

import (
	"fmt"
	"math/bits"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/sense"
)

// This file is the controller half of the verify-and-retry resilience layer
// (the scheduler half lives in internal/pimrt): a zero-cost digital
// reference computation and a cost-accounted read-back check that compares a
// destination row against it. The check models streaming the operand rows
// through the add-on digital logic once more while the destination row is
// burst to the checker — conservative single-row sensing end to end, which
// the fault model treats as reliable. The in-array SECDED alternative to
// this read-everything check lives in ecc.go.

// Golden computes the digital reference result of op over the operand rows'
// current contents into dst, growing it when it is shorter than the
// vector, and returns the bitvec.WordsFor(bits) words it wrote. It is the
// simulator's oracle: no commands, no energy, no injected faults — the
// word math of sense.Combine over the stored rows. Bits beyond `bits` in
// the last word are zeroed. dst is the caller's buffer: the resilience
// scheduler keeps its references in buffers it owns, so a verified
// request allocates nothing row-sized.
func (c *Controller) Golden(dst []uint64, op sense.Op, srcs []memarch.RowAddr, bits int) ([]uint64, error) {
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return nil, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("pim: golden %v of no operand rows", op)
	}
	for _, a := range srcs {
		if !geo.Valid(a) {
			return nil, fmt.Errorf("pim: operand address %v outside geometry", a)
		}
	}
	switch op {
	case sense.OpRead, sense.OpINV:
		if len(srcs) != 1 {
			return nil, fmt.Errorf("pim: golden %v of %d rows", op, len(srcs))
		}
	case sense.OpAND, sense.OpXOR:
		if len(srcs) != 2 {
			return nil, fmt.Errorf("pim: golden %v of %d rows", op, len(srcs))
		}
	case sense.OpOR:
	default:
		return nil, fmt.Errorf("pim: golden of unknown op %d", int(op))
	}
	w := bitvec.WordsFor(bits)
	out := scratchWords(dst, w)
	sense.Combine(out, op, c.operandRows(srcs, w))
	maskTail(out, bits)
	return out, nil
}

// Verification reports one read-back verification pass.
type Verification struct {
	// OK is true when the destination row matches the digital reference on
	// every bit of the vector.
	OK bool
	// MismatchedBits counts destination bits that disagree with the
	// reference — the wrong answers the check intercepted.
	MismatchedBits int
	// WriteFault is true when the stored row differs from what the
	// writeback claimed to program: the cells themselves are damaged
	// (stuck-at wear), so re-executing into the same row cannot help and
	// the row should be retired.
	WriteFault bool
	// Seconds and Energy are the cost of the check.
	Seconds float64
	Energy  energy.Meter
}

// VerifyAgainst re-reads dst and compares its first `bits` bits with the
// digital reference `golden`. nsrc prices the reference recompute (that many
// operand rows streamed through the digital combine path; pass 0 when the
// reference is already host-resident, e.g. after a host write). claimed,
// when non-nil, is what the writeback believed it stored; a stored/claimed
// disagreement is attributed to cell damage via Verification.WriteFault.
// The pass counts into the ledger as one verify, its mismatched bits as
// bits corrected (the wrong answers it kept from the caller), and its
// reads as hardware activity.
func (c *Controller) VerifyAgainst(nsrc, bitCount int, dst memarch.RowAddr, golden, claimed []uint64) (Verification, error) {
	geo := c.mem.Geometry()
	if bitCount < 1 || bitCount > geo.RowBits() {
		return Verification{}, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bitCount, geo.RowBits())
	}
	if !geo.Valid(dst) {
		return Verification{}, fmt.Errorf("pim: destination %v outside geometry", dst)
	}
	w := bitvec.WordsFor(bitCount)
	if len(golden) < w {
		return Verification{}, fmt.Errorf("pim: reference of %d words for a %d-bit check", len(golden), bitCount)
	}
	stored := c.mem.PeekRow(dst)[:w]

	var v Verification
	tail := uint(bitCount % 64)
	for i := 0; i < w; i++ {
		mask := ^uint64(0)
		if i == w-1 && tail != 0 {
			mask = 1<<tail - 1
		}
		v.MismatchedBits += bits.OnesCount64((stored[i] ^ golden[i]) & mask)
		if claimed != nil && (stored[i]^claimed[i])&mask != 0 {
			v.WriteFault = true
		}
	}
	v.OK = v.MismatchedBits == 0

	// Cost: burst dst to the checker (ACT + serial sensing + RD) and stream
	// the nsrc operand rows through the digital combine path once more
	// (ACT + sensing + GDL move + compare logic each). All single-row reads.
	t := c.mem.Tech().Timing
	e := c.mem.Tech().Energy
	groups := backend.SenseGroups(geo, bitCount)
	fbits := float64(bitCount)
	cmdTime := func(k ddr.CmdKind, payload int) float64 {
		return ddr.CmdTime(ddr.Cmd{Kind: k, Bits: payload}, t, c.bus)
	}
	perRowRead := cmdTime(ddr.CmdAct, 0) + float64(groups)*cmdTime(ddr.CmdSense, 0) + cmdTime(ddr.CmdPre, 0)
	v.Seconds = perRowRead + cmdTime(ddr.CmdRd, bitCount) // dst read-back
	v.Energy.Add(energy.CellArray, fbits*e.ActPerBit)
	v.Energy.Add(energy.LWLDriver, e.LWLPerAct)
	v.Energy.Add(energy.SenseAmp, fbits*e.SensePerBit)
	v.Energy.Add(energy.IOBus, fbits*e.IOBusPerBit)
	for i := 0; i < nsrc; i++ {
		v.Seconds += perRowRead + cmdTime(ddr.CmdGDLMove, bitCount)
		v.Energy.Add(energy.CellArray, fbits*e.ActPerBit)
		v.Energy.Add(energy.LWLDriver, e.LWLPerAct)
		v.Energy.Add(energy.SenseAmp, fbits*e.SensePerBit)
		v.Energy.Add(energy.GDL, fbits*e.GDLPerBit)
		v.Energy.Add(energy.Logic, fbits*e.LogicPerBit)
	}
	c.led.Count[ledger.Activations] += int64(1 + nsrc)
	c.led.Count[ledger.SenseSteps] += int64(groups * (1 + nsrc))
	c.led.Count[ledger.BusBits] += int64(bitCount)
	c.led.Count[ledger.Verifies]++
	c.led.Count[ledger.BitsCorrected] += int64(v.MismatchedBits)
	return v, nil
}

// maskTail zeroes the bits beyond bitCount in the last word.
func maskTail(words []uint64, bitCount int) {
	if tail := uint(bitCount % 64); tail != 0 && len(words) > 0 {
		words[len(words)-1] &= 1<<tail - 1
	}
}
