package pinatubo

import (
	"context"
	"fmt"
	"time"

	"pinatubo/internal/chansim"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
)

// BatchOp is one operation of a batch: Dst = Op(Srcs...). The operand
// rules are exactly Apply's (OpPopcount takes no sources and counts Dst).
type BatchOp struct {
	Op   Op
	Dst  *BitVector
	Srcs []*BitVector
}

// BatchResult reports a batch execution: the per-op results Apply would
// have returned, plus the channel-level schedule of the whole batch.
type BatchResult struct {
	// Results[i] is op i's outcome, identical to what a sequential
	// Apply(ops[i]) at the same point would have returned (bit-identical
	// at fault rate 0; see Batch).
	Results []Result
	// Makespan is the scheduled end-to-end time of the batch on the
	// memory channels, with per-bank contention resolved by the
	// event-driven scheduler. At fault rate 0 it is bit-identical to the
	// PlanPoint.Makespan Plan predicts for the same op mix under the
	// same arbiter.
	Makespan time.Duration
	// Completion[i] is op i's finish time within the schedule.
	Completion []time.Duration
	// Sequential is the back-to-back time of the same requests with no
	// overlap — the baseline the batch's concurrency is measured against.
	Sequential time.Duration
	// Speedup is Sequential / Makespan.
	Speedup float64
	// Shards is how many isolated memory shards the data-side effects
	// executed across (1 means a single shard, or a fault-injected run
	// that retired a row mid-batch and was deterministically replayed in
	// op order on the live system).
	Shards int
	// Arb is the arbitration policy the schedule used.
	Arb Arbiter
}

// Batch executes a set of operations as one scheduled batch. It is
// exactly NewBatchBuilder, one Add per op, Start and Wait:
//
//  1. lower — every op is executed through the normal pipeline and its
//     full cmdstream program (requests, verification passes) captured;
//  2. schedule — the programs are converted to per-bank-resource requests
//     and run through the event-driven channel scheduler under the
//     arbiter selected by WithArbiter (ArbFIFO by default);
//  3. execute — the data-side effects run concurrently across independent
//     shards: ops whose footprints (rows, scratch rows, global row
//     buffers, I/O buffers) are disjoint execute on isolated shard
//     memories in parallel, then merge deterministically.
//
// Results are indistinguishable from issuing the same ops sequentially
// through Apply: memory contents, per-op Results, Stats/FaultStats and
// hardware counters all match (integer counters exactly; summed float
// totals may differ from the sequential order by ULPs when more than one
// shard ran). Fault injection shards too: the injector draws every op's
// faults from a per-operation substream seeded by (Seed, op sequence
// number), so each shard replays exactly the faults sequential execution
// would have drawn, on a sandboxed copy of the injector's per-row state.
// The one case that cannot be sandboxed is a mid-batch row retirement
// (the remap must allocate from the live allocator); when a shard hits
// one, the sandboxes are discarded and the batch deterministically
// replays in op order on the live system (Shards reports 1).
//
// WithContext attaches cancellation, all-or-nothing: a cancelled batch
// discards its sandboxes unmerged and the System is left as if the batch
// never ran. Only the fault-retirement replay above runs on the live
// system; there cancellation stops between ops and leaves the completed
// prefix applied, exactly a sequence of Apply calls interrupted at that
// point.
//
// Ops whose operands span ranks are rejected: the paper's datapaths stop
// at the rank's I/O buffer, and Apply would reject them too. On error the
// batch's memory effects may be partial, exactly as a sequence of Apply
// calls stopped at the failing op.
//
// For streaming admission — building the next batch while the current one
// executes — use NewBatchBuilder and BatchRun instead of collecting a
// slice for Batch.
func (s *System) Batch(ops []BatchOp, opts ...Option) (BatchResult, error) {
	b := s.NewBatchBuilder()
	for _, op := range ops {
		if err := b.Add(op); err != nil {
			return BatchResult{}, err
		}
	}
	run, err := b.Start(opts...)
	if err != nil {
		return BatchResult{}, err
	}
	return run.Wait()
}

// fpKey names one exclusive hardware resource an op's data path may touch:
// a row, a bank's global row buffer, or a rank's I/O buffer. Ops whose key
// sets intersect must execute in program order; disjoint ops commute.
type fpKey struct {
	kind byte // 'r' row, 'g' global row buffer, 'i' I/O buffer
	addr memarch.RowAddr
}

// opFootprint computes the key set of one op, conservatively: every
// operand and destination row, the scratch row of every multi-row OR
// group, and — whenever the rows leave a single subarray — the global row
// buffer of every touched bank plus, across banks, the rank's I/O buffer.
// Over-approximation only costs concurrency, never correctness.
func (s *System) opFootprint(op BatchOp) ([]fpKey, error) {
	var keys []fpKey
	if op.Op == OpPopcount {
		for _, r := range op.Dst.rows {
			keys = s.appendRowKeys(keys, r)
		}
		return keys, nil
	}
	geo := s.mem.Geometry()
	for batch := range op.Dst.rows {
		all := make([]memarch.RowAddr, 0, len(op.Srcs)+1)
		for _, src := range op.Srcs {
			all = append(all, src.rows[batch])
		}
		srcRows := all
		all = append(all, op.Dst.rows[batch])
		if !memarch.SameRank(all...) {
			return nil, fmt.Errorf("operands span ranks; split the batch at the rank boundary")
		}
		for _, r := range all {
			keys = s.appendRowKeys(keys, r)
		}
		if op.Op == OpOr {
			for _, g := range pimrt.GroupBySubarray(srcRows) {
				if len(g) > 1 {
					keys = append(keys, fpKey{kind: 'r', addr: pimrt.ScratchRow(geo, g[0])})
				}
			}
		}
		if memarch.SameSubarray(all...) {
			continue
		}
		banks := make(map[[3]int]bool)
		for _, r := range all {
			b := [3]int{r.Channel, r.Rank, r.Bank}
			if banks[b] {
				continue
			}
			banks[b] = true
			keys = append(keys, fpKey{kind: 'g',
				addr: memarch.RowAddr{Channel: r.Channel, Rank: r.Rank, Bank: r.Bank}})
		}
		if len(banks) > 1 {
			keys = append(keys, fpKey{kind: 'i',
				addr: memarch.RowAddr{Channel: all[0].Channel, Rank: all[0].Rank}})
		}
	}
	return keys, nil
}

// appendRowKeys adds one row's footprint key plus — with the replication
// rung active — the keys of its replica copies: a voted activation senses
// them and a verified result re-syncs them, so they are part of the op's
// exclusive data path.
func (s *System) appendRowKeys(keys []fpKey, r memarch.RowAddr) []fpKey {
	keys = append(keys, fpKey{kind: 'r', addr: r})
	for _, rep := range s.replicaRows(r) {
		keys = append(keys, fpKey{kind: 'r', addr: rep})
	}
	return keys
}

// runSequential is the fault-retirement replay of a batch run: it
// executes the ops in order on the live system, capturing each op's
// program. Cancellation is observed between ops: the completed prefix
// stays applied (Apply-sequence semantics) and the context's error is
// returned.
func (s *System) runSequential(ctx context.Context, ops []BatchOp, results []Result, progs []cmdstream.Program) error {
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := s.applyOpts(op.Op, op.Dst, op.Srcs, callOpts{})
		if err != nil {
			return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
		}
		results[i] = res
		progs[i] = cmdstream.Program{}
		progs[i].Append(s.prog)
	}
	return nil
}

// scheduleBatch converts the captured per-op programs into per-resource
// requests, runs them through the event-driven channel scheduler under
// arb, and assembles the BatchResult.
func (s *System) scheduleBatch(ops []BatchOp, progs []cmdstream.Program, results []Result, nshards int, arb Arbiter) (BatchResult, error) {
	carb, err := arb.internal()
	if err != nil {
		return BatchResult{}, err
	}
	timing := s.mem.Tech().Timing
	bus := s.ctl.Bus()
	banks := s.mem.Geometry().BanksPerChip
	reqs := make([]chansim.Request, len(ops))
	var back float64
	for i := range ops {
		reqs[i] = progs[i].Request(timing, bus, banks)
		back += reqs[i].Duration()
	}
	sched, err := chansim.ScheduleWith(reqs, carb)
	if err != nil {
		return BatchResult{}, err
	}
	out := BatchResult{
		Results:    results,
		Makespan:   seconds(sched.Makespan),
		Completion: make([]time.Duration, len(ops)),
		Sequential: seconds(back),
		Shards:     nshards,
		Arb:        arb,
	}
	for i, c := range sched.Completion {
		out.Completion[i] = seconds(c)
	}
	if sched.Makespan > 0 {
		out.Speedup = back / sched.Makespan
	}
	return out, nil
}
