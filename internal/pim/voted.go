package pim

import (
	"fmt"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/memarch"
	"pinatubo/internal/sense"
)

// ExecuteVoted runs op over R replicated operand sets and majority-votes
// the sensed results — the proactive rung of the resilience ladder.
// sets[0] is the primary operand set; sets[1..] hold replica copies of the
// same logical rows. Each set is activated and sensed as its own
// multi-row group (LWL reset, activate, sense) inside one command
// sequence, so the per-step analog margin — and therefore the operand
// depth limit — is exactly that of a plain request; the reliability gain
// is the ⌈R/2⌉-of-R vote over the R independent sensing passes, taken in
// the subarray's add-on logic before write-back. Only the primary
// destination row is written: replica refresh is the runtime's job, where
// it is priced as explicit copy requests.
//
// All rows of all sets must share a subarray (the analog vote has no
// meaning on the serial digital path). A transient activation fault in
// any replica group fails the whole request, exactly like a plain
// multi-row activation — nothing was written, so the caller may reissue.
// Panics if the command sequence it built violates the extended-DDR
// protocol (a controller bug by construction, like Execute).
func (c *Controller) ExecuteVoted(op sense.Op, sets [][]memarch.RowAddr, bits int, dst *memarch.RowAddr) (*Result, error) {
	if !c.be.Caps().VotedSensing {
		return nil, fmt.Errorf("pim: voted execution requires a backend that can re-sense an operand set at full margin; the %s backend cannot",
			c.be.Params().Tech)
	}
	r := len(sets)
	if r%2 == 0 || r < 3 || r > 7 {
		return nil, fmt.Errorf("pim: voted execution needs an odd replica count in 3..7, got %d", r)
	}
	n := len(sets[0])
	var all []memarch.RowAddr
	for i, set := range sets {
		if len(set) != n {
			return nil, fmt.Errorf("pim: replica set %d has %d rows, primary has %d", i, len(set), n)
		}
		all = append(all, set...)
	}
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return nil, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	class, err := c.Classify(all)
	if err != nil {
		return nil, err
	}
	if class != ClassIntraSub {
		return nil, fmt.Errorf("pim: voted execution requires intra-subarray placement, got %s", class)
	}
	if err := c.validateOperandCount(op, ClassIntraSub, n); err != nil {
		return nil, err
	}
	if dst != nil {
		if !geo.Valid(*dst) {
			return nil, fmt.Errorf("pim: destination %v outside geometry", *dst)
		}
		if !memarch.SameRank(append([]memarch.RowAddr{*dst}, all...)...) {
			return nil, ErrCrossRank
		}
	}

	mr4, err := ddr.EncodeMR4(op, n)
	if err != nil {
		return nil, err
	}
	if err := c.mrs.Write(ddr.PIMRegister, uint16(mr4)); err != nil {
		return nil, err
	}

	res := &Result{Op: op, Class: ClassIntraSub, Rows: n, Bits: bits, Voted: r}
	res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdMRS})

	e := c.mem.Tech().Energy
	w := bitvec.WordsFor(bits)
	groups := senseGroups(geo, bits)
	steps := groups * op.SenseSteps()
	fbits := float64(bits)
	fn := float64(n)

	outs := c.voteScratch(r, w)
	if cap(c.rowsScratch) < n {
		c.rowsScratch = make([][]uint64, n)
	}
	for si, set := range sets {
		// Each replica group is a fresh multi-row activation: the LWL reset
		// closes the previous group's rows and re-arms the latches, so the
		// protocol checker sees R well-formed groups in one sequence.
		lwl := backend.NewLWL(geo.RowsPerSubarray)
		lwl.Reset()
		res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdLWLReset, Addr: set[0]})
		for i, s := range set {
			if err := lwl.Latch(s.Row); err != nil {
				return nil, err
			}
			kind := ddr.CmdActLatch
			if i == 0 {
				kind = ddr.CmdAct
			}
			res.Commands = append(res.Commands, ddr.Cmd{Kind: kind, Addr: s})
		}
		if lwl.OpenCount() != n {
			return nil, fmt.Errorf("pim: LWL opened %d rows, want %d", lwl.OpenCount(), n)
		}
		if c.inj != nil && c.inj.ActivationFault(n) {
			return nil, fmt.Errorf("pim: activating %d rows (voted): %w", n, backend.ErrActivationFault)
		}
		for i := 0; i < steps; i++ {
			res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdSense, Addr: set[0]})
		}

		rows := c.rowsScratch[:n]
		for i, s := range set {
			rows[i] = c.mem.PeekRow(s)[:w]
		}
		out := outs[si]
		if err := c.be.ComputeInto(out, op, rows); err != nil {
			return nil, err
		}
		if c.inj != nil {
			// Every replica pass senses independently at the same margin —
			// this is the independence the majority vote exploits.
			c.inj.FlipSensed(op, n, bits, out)
		}

		res.Energy.Add(energy.CellArray, fbits*e.ActPerBit)
		res.Energy.Add(energy.LWLDriver, fn*e.LWLPerAct)
		res.Energy.Add(energy.SenseAmp,
			float64(op.SenseSteps())*fbits*(e.SensePerBit+fn*e.SenseRowAdd))
	}

	// The majority words become res.Words. Unlike a cache hit's words they
	// get a fresh buffer, which the caller owns past the next execution
	// (the scheduler verifies and stores through it); only the
	// per-replica sensing passes run on scratch.
	maj := make([]uint64, w)
	disagree, err := sense.MajorityWordsInto(maj, outs, bits)
	if err != nil {
		return nil, err
	}
	res.Words = maj
	res.Outvoted = int64(disagree)
	// The vote gate lives in the subarray's add-on logic, one pass per
	// replica beyond the first (the carry-save counters fold R-1 times).
	res.Energy.Add(energy.Logic, float64(r-1)*fbits*e.LogicPerBit)

	if err := c.writeback(sets[0][0], bits, dst, res, ClassIntraSub); err != nil {
		return nil, err
	}

	preAddr := sets[0][0]
	if dst != nil {
		preAddr = *dst
	}
	res.Commands = append(res.Commands, ddr.Cmd{Kind: ddr.CmdPre, Addr: preAddr})
	if err := ddr.ValidateSequence(res.Commands); err != nil {
		panic(fmt.Sprintf("pim: invalid voted command sequence for %v: %v", op, err))
	}
	res.Seconds = ddr.Duration(res.Commands, c.mem.Tech().Timing, c.bus)
	c.tally(ClassIntraSub, res.Commands)

	if dst != nil {
		if err := c.store(*dst, res.Words); err != nil {
			return nil, err
		}
	}
	return res, nil
}
