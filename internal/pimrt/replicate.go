package pimrt

// This file is the proactive rung of the resilience ladder: replication +
// majority-vote sensing (the PULSAR trade — capacity for reliability).
// When the memory's replica groups show that every operand of an
// intra-subarray request has R-1 coherent copies, the request executes as
// one majority-voted activation: R sequential multi-row groups sensed at
// the native depth, voted bitwise before write-back. The reactive rungs
// (retry, depth-split, inter-digital, host) only engage when the vote is
// not unanimous *and* verification still fails — at realistic fault rates
// the binomial vote tail turns nearly every would-be degradation into a
// clean first-try result.

import (
	"slices"

	"pinatubo/internal/memarch"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// votedSets assembles the replica operand sets for a request, or returns
// nil when voting does not apply: an operand that heads no replica group,
// mismatched replica counts, or a placement the analog vote cannot serve
// (all copies of all operands must share one subarray).
// sets[0] is srcs itself; sets[k] holds the k-th copy of every operand.
// The sets are cut from the scheduler's voteRows, which also holds a copy
// of srcs for the subarray check, and listed in its voteSets: both live
// until the next request, which is all ExecuteVoted needs.
func (s *Scheduler) votedSets(srcs []memarch.RowAddr) [][]memarch.RowAddr {
	if len(srcs) == 0 {
		return nil
	}
	mem := s.Ctl.Memory()
	r, n := len(mem.Replicas(srcs[0])), len(srcs)
	if r == 0 {
		return nil
	}
	// rows holds copy k of operand i at k*n+i, copy 0 being srcs.
	rows := slices.Grow(s.voteRows[:0], (r+1)*n)[:(r+1)*n]
	s.voteRows = rows
	copy(rows, srcs)
	for i, a := range srcs {
		rep := mem.Replicas(a)
		if len(rep) != r {
			return nil
		}
		for k, row := range rep {
			rows[(k+1)*n+i] = row
		}
	}
	if !memarch.SameSubarray(rows...) {
		return nil
	}
	sets := append(s.voteSets[:0], srcs)
	for k := 1; k <= r; k++ {
		sets = append(sets, rows[k*n:(k+1)*n:(k+1)*n])
	}
	s.voteSets = sets
	return sets
}

// nativeExec executes one request on the native analog path, majority
// voted when every operand is replicated, plain otherwise. The controller
// counts the vote of a voted request that completes.
func (s *Scheduler) nativeExec(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr) (pim.Result, error) {
	if sets := s.votedSets(srcs); sets != nil {
		return s.Ctl.ExecuteVoted(op, sets, bits, dst)
	}
	return s.Ctl.Execute(op, srcs, bits, dst)
}

// syncReplicas refreshes the replica copies of a just-verified target row
// with plain single-row copy requests (activate the primary, sense at the
// read margin, write back into the replica's row), so the next voted
// activation sees R coherent copies. Voted execution writes only the
// primary destination; this is where the replicas catch up — priced as
// the explicit requests they are, recorded into the operation's program.
// Each copy's operand list and destination are the scheduler's copySrc and
// copyDst.
func (s *Scheduler) syncReplicas(target memarch.RowAddr, bits int, res *ScheduleResult) error {
	s.copySrc[0] = target
	for _, rep := range s.Ctl.Memory().Replicas(target) {
		s.copyDst = rep
		r, err := s.Ctl.Execute(sense.OpRead, s.copySrc[:], bits, &s.copyDst)
		if err != nil {
			return err
		}
		res.Program.Emit(r.Instr())
	}
	return nil
}
