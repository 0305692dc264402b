package pim

import (
	"fmt"

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
// A voted request is a plain request with replica sets: it checks only
// what is voted-only here — a backend that can re-sense at full margin
// and an odd replica count in 3..7 — and runs through execute, whose
// lowering validates every set (equal sizes, all rows distinct and in one
// subarray) and whose replay senses the sets in order (activation-fault
// draw, compute, flips) and votes into the controller's result buffer. A
// transient activation fault in any replica group fails the whole
// request, exactly like a plain multi-row activation — nothing was
// written, so the caller may reissue. Voted lowerings are never cached
// (execute keys only requests without replica sets), so the program
// cache's entries and counters are those of the plain requests alone.
func (c *Controller) ExecuteVoted(op sense.Op, sets [][]memarch.RowAddr, bits int, dst *memarch.RowAddr) (Result, error) {
	if !c.be.Caps().VotedSensing {
		return Result{}, fmt.Errorf("pim: voted execution requires a backend that can re-sense an operand set at full margin; the %s backend cannot",
			c.be.Params().Tech)
	}
	if r := len(sets); r%2 == 0 || r < 3 || r > 7 {
		return Result{}, fmt.Errorf("pim: voted execution needs an odd replica count in 3..7, got %d", r)
	}
	return c.execute(op, sets[0], sets[1:], bits, dst, false)
}

// votedRows lists every row of a voted request — srcs, then each replica
// set, which must name as many rows as srcs — in the controller's buffer,
// for Classify to check them as one co-located, pairwise distinct group.
func (c *Controller) votedRows(srcs []memarch.RowAddr, reps [][]memarch.RowAddr) ([]memarch.RowAddr, error) {
	all := append(c.voteRows[:0], srcs...)
	for i, set := range reps {
		if len(set) != len(srcs) {
			return nil, fmt.Errorf("pim: replica set %d has %d rows, primary has %d", i+1, len(set), len(srcs))
		}
		all = append(all, set...)
	}
	c.voteRows = all
	return all, nil
}

// senseVoted is a voted replay's sensing: srcs and then every replica set
// are sensed as their own multi-row activations (senseIntra), each into
// its own pass buffer, and the passes are majority-voted into out. It
// returns the bit positions where the passes disagreed.
func (c *Controller) senseVoted(out []uint64, op sense.Op, srcs []memarch.RowAddr, reps [][]memarch.RowAddr, bits int) (int, error) {
	outs := c.senseScratch(1+len(reps), len(out))
	set := srcs
	for i := range outs {
		if i > 0 {
			set = reps[i-1]
		}
		if err := c.senseIntra(outs[i], op, c.operandRows(set, len(out)), bits); err != nil {
			return 0, err
		}
	}
	return sense.MajorityWordsInto(out, outs, bits)
}
