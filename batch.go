package pinatubo

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pinatubo/internal/chansim"
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
//     full cmdstream program (requests, verification passes) converted
//     to a per-bank-resource channel request as soon as the op returns;
//  2. schedule — the requests run through the event-driven channel
//     scheduler under the arbiter selected by WithArbiter (ArbFIFO by
//     default);
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

// opFootprint appends op's key set to the builder's key buffer,
// conservatively: every operand and destination row, the scratch row of
// every subarray holding more than one OR source, and — whenever the rows
// leave a single subarray — the global row buffer of every touched bank
// plus, across banks, the rank's I/O buffer. Over-approximation only costs
// concurrency, never correctness. Each row batch's operand rows go to the
// builder's row scratch, and a scratch row or bank already keyed is found
// among the keys just appended, so a warm builder allocates nothing here.
func (b *BatchBuilder) opFootprint(op BatchOp) error {
	s := b.sys
	if op.Op == OpPopcount {
		for _, r := range op.Dst.rows {
			b.keys = s.appendRowKeys(b.keys, r)
		}
		return nil
	}
	geo := s.mem.Geometry()
	for batch := range op.Dst.rows {
		all := b.rows[:0]
		for _, src := range op.Srcs {
			all = append(all, src.rows[batch])
		}
		all = append(all, op.Dst.rows[batch])
		b.rows = all
		if !memarch.SameRank(all...) {
			return fmt.Errorf("operands span ranks; split the batch at the rank boundary")
		}
		for _, r := range all {
			b.keys = s.appendRowKeys(b.keys, r)
		}
		if op.Op == OpOr {
			// Two rows share a subarray exactly when they share its
			// scratch row. Key it at the subarray's first source.
			srcRows := all[:len(op.Srcs)]
			from := len(b.keys)
			for j, r := range srcRows {
				k := fpKey{kind: 'r', addr: pimrt.ScratchRow(geo, r)}
				if slices.Contains(b.keys[from:], k) {
					continue
				}
				for _, q := range srcRows[j+1:] {
					if pimrt.ScratchRow(geo, q) == k.addr {
						b.keys = append(b.keys, k)
						break
					}
				}
			}
		}
		if memarch.SameSubarray(all...) {
			continue
		}
		from := len(b.keys)
		for _, r := range all {
			k := fpKey{kind: 'g', addr: memarch.RowAddr{Channel: r.Channel, Rank: r.Rank, Bank: r.Bank}}
			if !slices.Contains(b.keys[from:], k) {
				b.keys = append(b.keys, k)
			}
		}
		if len(b.keys)-from > 1 {
			b.keys = append(b.keys, fpKey{kind: 'i',
				addr: memarch.RowAddr{Channel: all[0].Channel, Rank: all[0].Rank}})
		}
	}
	return nil
}

// appendRowKeys adds one row's footprint key plus — with the replication
// rung active — the keys of its replica copies: a voted activation senses
// them and a verified result re-syncs them, so they are part of the op's
// exclusive data path.
func (s *System) appendRowKeys(keys []fpKey, r memarch.RowAddr) []fpKey {
	keys = append(keys, fpKey{kind: 'r', addr: r})
	for _, rep := range s.mem.Replicas(r) {
		keys = append(keys, fpKey{kind: 'r', addr: rep})
	}
	return keys
}

// runSequential is the fault-retirement replay of a batch run: it
// executes the ops, validated at admission, in order on the live system
// and on the live vectors' own rows, turning each op's program into its
// channel request as the workers do, in the live System's request buffer,
// which it rewinds first. Cancellation is observed between ops: the
// completed prefix stays applied (Apply-sequence semantics) and the
// context's error is returned.
func (s *System) runSequential(ctx context.Context, ops []BatchOp, results []Result, reqs []chansim.Request) error {
	s.reqCmds = s.reqCmds[:0]
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := s.applyRows(op.Op, op.Dst.rows, op.Dst.bits, op.Srcs, callOpts{})
		if err != nil {
			return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
		}
		results[i] = res
		reqs[i] = s.opRequest()
	}
	return nil
}

// opRequest converts the program of the op s just ran into its channel
// request, appending its commands to s's request buffer: they stay valid
// until the buffer is rewound (reqCmds), which outlives the op's program
// and the controller's command arena.
func (s *System) opRequest() chansim.Request {
	req, buf := s.prog.AppendRequest(s.reqCmds, s.mem.Tech().Timing, s.ctl.Bus(), s.mem.Geometry())
	s.reqCmds = buf
	return req
}

// scheduleBatch runs the ops' channel requests through the event-driven
// channel scheduler under arb and assembles the BatchResult.
func (s *System) scheduleBatch(reqs []chansim.Request, results []Result, nshards int, arb Arbiter) (BatchResult, error) {
	carb, err := arb.internal()
	if err != nil {
		return BatchResult{}, err
	}
	var back float64
	for _, r := range reqs {
		back += r.Duration()
	}
	sched, err := chansim.ScheduleWith(reqs, carb)
	if err != nil {
		return BatchResult{}, err
	}
	out := BatchResult{
		Results:    results,
		Makespan:   seconds(sched.Makespan),
		Completion: make([]time.Duration, len(reqs)),
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
