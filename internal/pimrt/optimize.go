package pimrt

import (
	"fmt"

	"pinatubo/internal/memarch"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// This file implements the driver library's request optimiser (the
// "schedule opt" box in the paper's Fig. 4): before issuing a batch of OR
// requests to the hardware, the driver fuses chains that applications
// naturally produce — OR(a,b)→t, OR(t,c)→d becomes OR(a,b,c)→d when t is a
// temporary — so a software fold turns back into the one-step multi-row
// operation Pinatubo exists for.

// ORRequest is one logical OR in a driver batch.
type ORRequest struct {
	Srcs []memarch.RowAddr
	Dst  memarch.RowAddr
	Bits int
	// Temp marks destinations that no one reads after this batch
	// (intermediate accumulators); only those may be fused away.
	Temp bool
}

// OptimizeBatch fuses producer→consumer chains in a request batch. A
// request i is folded into a later request j when
//
//   - i's destination is a temporary,
//   - j is the only later request using it (and uses it as a source),
//   - no request between i and j touches it, and
//   - the fused operand count stays within the one-step depth.
//
// The returned batch preserves program semantics for every non-temporary
// destination. Fusion runs to a fixpoint, so whole fold chains collapse.
func OptimizeBatch(reqs []ORRequest, depth int, geo memarch.Geometry) []ORRequest {
	out := append([]ORRequest(nil), reqs...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(out); i++ {
			if !out[i].Temp {
				continue
			}
			j, uses := soleConsumer(out, i, geo)
			if j < 0 || uses != 1 {
				continue
			}
			if out[i].Bits != out[j].Bits {
				continue
			}
			fusedLen := len(out[i].Srcs) + len(out[j].Srcs) - 1
			if fusedLen > depth {
				continue
			}
			// Substitute i's sources for its destination in j.
			key := geo.Encode(out[i].Dst)
			var srcs []memarch.RowAddr
			for _, s := range out[j].Srcs {
				if geo.Encode(s) == key {
					srcs = append(srcs, out[i].Srcs...)
				} else {
					srcs = append(srcs, s)
				}
			}
			out[j].Srcs = dedupeRows(srcs, geo)
			out = append(out[:i], out[i+1:]...)
			changed = true
			break
		}
	}
	for i := range out {
		out[i].Srcs = dedupeRows(out[i].Srcs, geo)
	}
	return out
}

// soleConsumer returns the index of the single later request that reads
// req[i].Dst as a source, and how many times the destination appears as a
// source anywhere after i. It returns -1 if the destination is also
// overwritten or read ambiguously.
func soleConsumer(reqs []ORRequest, i int, geo memarch.Geometry) (int, int) {
	key := geo.Encode(reqs[i].Dst)
	consumer, uses := -1, 0
	for j := i + 1; j < len(reqs); j++ {
		for _, s := range reqs[j].Srcs {
			if geo.Encode(s) == key {
				uses++
				if consumer == -1 {
					consumer = j
				} else if consumer != j {
					return -1, uses // multiple consumers
				}
			}
		}
		if geo.Encode(reqs[j].Dst) == key && j != consumer {
			// Overwritten before/without consumption elsewhere: unsafe.
			return -1, uses
		}
	}
	return consumer, uses
}

// dedupeRows removes duplicate addresses, keeping first occurrences.
func dedupeRows(rows []memarch.RowAddr, geo memarch.Geometry) []memarch.RowAddr {
	seen := make(map[uint64]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := geo.Encode(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// RunBatch executes a request batch on the scheduler, returning the total
// cost and request count. It is the driver's issue loop.
func (s *Scheduler) RunBatch(reqs []ORRequest) (workload.Cost, int, error) {
	var total workload.Cost
	requests := 0
	for i, r := range reqs {
		if len(r.Srcs) == 0 {
			return workload.Cost{}, 0, fmt.Errorf("pimrt: batch request %d has no sources", i)
		}
		res, err := s.Execute(sense.OpOR, r.Srcs, r.Bits, r.Dst)
		if err != nil {
			return workload.Cost{}, 0, fmt.Errorf("pimrt: batch request %d: %w", i, err)
		}
		total.Add(res.Cost)
		requests += res.Requests
	}
	return total, requests, nil
}
