package pim

import (
	"fmt"

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
// meaning on the serial digital path). Like Execute, a voted request is a
// pure lowering — the backend's LowerIntra once per replica group — and
// one replay, which senses the groups in order (activation-fault draw,
// compute, flips). A transient activation fault in any replica group
// fails the whole request, exactly like a plain multi-row activation —
// nothing was written, so the caller may reissue. Voted lowerings are not
// cached: only replicated Systems issue them, and those always have an
// injector attached. Panics if the command sequence it built violates the
// extended-DDR protocol (a controller bug by construction, like Execute).
func (c *Controller) ExecuteVoted(op sense.Op, sets [][]memarch.RowAddr, bits int, dst *memarch.RowAddr) (Result, error) {
	if !c.be.Caps().VotedSensing {
		return Result{}, fmt.Errorf("pim: voted execution requires a backend that can re-sense an operand set at full margin; the %s backend cannot",
			c.be.Params().Tech)
	}
	r := len(sets)
	if r%2 == 0 || r < 3 || r > 7 {
		return Result{}, fmt.Errorf("pim: voted execution needs an odd replica count in 3..7, got %d", r)
	}
	n := len(sets[0])
	var all []memarch.RowAddr
	for i, set := range sets {
		if len(set) != n {
			return Result{}, fmt.Errorf("pim: replica set %d has %d rows, primary has %d", i, len(set), n)
		}
		all = append(all, set...)
	}
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return Result{}, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	class, err := c.Classify(all)
	if err != nil {
		return Result{}, err
	}
	if class != ClassIntraSub {
		return Result{}, fmt.Errorf("pim: voted execution requires intra-subarray placement, got %s", class)
	}
	if err := c.validateOperandCount(op, ClassIntraSub, n); err != nil {
		return Result{}, err
	}
	if dst != nil {
		if !geo.Valid(*dst) {
			return Result{}, fmt.Errorf("pim: destination %v outside geometry", *dst)
		}
		// Classify proved that the operand rows share one rank.
		if !memarch.SameRank(*dst, all[0]) {
			return Result{}, ErrCrossRank
		}
	}

	mr4, err := ddr.EncodeMR4(op, n)
	if err != nil {
		return Result{}, err
	}

	// Lower: each replica group is its own multi-row activation, lowered
	// by the backend exactly as a plain request's. The backend's LWL reset
	// closes the previous group's rows and re-arms the latches, so the
	// protocol checker sees R well-formed groups in one sequence. The
	// vote gate lives in the subarray's add-on logic, one pass per replica
	// beyond the first (the carry-save counters fold R-1 times).
	cmds, err := c.lowerIntra(op, sets, bits, dst, false)
	if err != nil {
		return Result{}, err
	}
	c.lowerEn.Add(energy.Logic, float64(r-1)*float64(bits)*c.mem.Tech().Energy.LogicPerBit)
	p := c.closeAndPrice(ClassIntraSub, sets[0][0], bits, dst, cmds, c.lowerEn, mr4)

	// Replay: every replica pass senses independently at the same margin
	// — the independence the majority vote exploits.
	if err := c.mrs.Write(ddr.PIMRegister, uint16(mr4)); err != nil {
		return Result{}, err
	}
	w := bitvec.WordsFor(bits)
	outs := c.senseScratch(r, w)
	for i, set := range sets {
		if err := c.senseIntra(outs[i], op, c.operandRows(set, w), bits); err != nil {
			return Result{}, err
		}
	}
	// The majority words get a fresh buffer, which the caller owns past
	// the next execution (the scheduler verifies and stores through it).
	maj := make([]uint64, w)
	disagree, err := sense.MajorityWordsInto(maj, outs, bits)
	if err != nil {
		return Result{}, err
	}
	c.tally(&p)
	if dst != nil {
		if err := c.store(*dst, maj); err != nil {
			return Result{}, err
		}
	}
	return Result{Op: op, Class: ClassIntraSub, Rows: n, Bits: bits, Seconds: p.seconds,
		Energy: p.energy, Commands: p.commands, Words: maj, Voted: r, Outvoted: int64(disagree)}, nil
}
