package pinatubo

import (
	"math/rand"
	"testing"

	"pinatubo/internal/chansim"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
)

// scheduleGeometry is one rank of eight banks of two 16-row subarrays
// with 4,096-bit rows, so a 10,000-bit vector spans three rows and its
// last row chunk senses fewer column groups than the other two, and five
// such vectors fill a subarray's usable rows.
func scheduleGeometry() Geometry {
	return Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     8,
		SubarraysPerBank: 2,
		MatsPerSubarray:  1,
		RowsPerSubarray:  16,
		MatRowBits:       512,
		MuxRatio:         32,
	}
}

// buildScheduleOps allocates and seeds, on s, a window of ops in several
// shapes over multi-row vectors, in three shards: a 3-operand OR, a NOT
// and a popcount chained through the vectors of one subarray; an XOR, a
// copy and an AND chained through those of the next; and an OR across two
// banks. Two identically configured systems get bit-identical twins.
func buildScheduleOps(t *testing.T, s *System) []BatchOp {
	t.Helper()
	const bits = 10000
	rng := rand.New(rand.NewSource(35))
	group := func(n int) []*BitVector {
		g := make([]*BitVector, n)
		for i := range g {
			v, err := s.Alloc(bits)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]uint64, (bits+63)/64)
			for i := range data {
				data[i] = rng.Uint64() & rng.Uint64()
			}
			if _, err := s.Write(v, data); err != nil {
				t.Fatal(err)
			}
			g[i] = v
		}
		return g
	}
	a, b, c := group(5), group(4), group(3)
	return []BatchOp{
		{Op: OpOr, Dst: a[3], Srcs: a[:3]},
		{Op: OpXor, Dst: b[2], Srcs: b[:2]},
		{Op: OpNot, Dst: a[4], Srcs: a[3:4]},
		{Op: OpOr, Dst: c[2], Srcs: c[:2]},
		{Op: OpCopy, Dst: b[3], Srcs: b[1:2]},
		{Op: OpPopcount, Dst: a[4]},
		{Op: OpAnd, Dst: b[0], Srcs: []*BitVector{b[2], b[3]}},
	}
}

// TestWindowScheduleMatchesFreshRequests pins a window's schedule against
// an independent reference. A twin runs the same ops one at a time,
// builds each op's channel request afresh (freshRequest) and schedules
// them with chansim.ScheduleWith: the window's Makespan, Sequential,
// Speedup and every Completion must be the twin's exactly. A window
// builds its requests in a buffer each System keeps from programs whose
// commands an uncached controller lowers into an arena it keeps, so a
// request that aliased another op's commands, or an op whose earlier row
// chunks were lowered over by later ones, would change the schedule. Each case runs two windows, the second on pooled sandboxes.
// The worn case retires rows in its first window, which therefore replays
// on the live System (runSequential) and reports one shard; the rows it
// remapped leave the second window one shard to run.
func TestWindowScheduleMatchesFreshRequests(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		arb    Arbiter
		replay bool
	}{
		{"pcm-fifo", Config{Tech: PCM, Geometry: scheduleGeometry()}, ArbFIFO, false},
		{"pcm-oldest-ready", Config{Tech: PCM, Geometry: scheduleGeometry()}, ArbOldestReady, false},
		{"pcm-ecc-faulty", Config{Tech: PCM, Geometry: scheduleGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 11, SenseFlipRate: 1e-3, ActivationFailRate: 1e-3}}, ArbFIFO, false},
		{"pcm-ecc-worn", Config{Tech: PCM, Geometry: scheduleGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 1, SenseFlipRate: 1e-3, WearLimit: 2}}, ArbOldestReady, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, twin := twoSys(t, tc.cfg)
			ops, twinOps := buildScheduleOps(t, sys), buildScheduleOps(t, twin)
			b := sys.NewBatchBuilder()
			for round := 0; round < 2; round++ {
				for _, op := range ops {
					if err := b.Add(op); err != nil {
						t.Fatal(err)
					}
				}
				if n := b.Shards(); round == 0 && n != 3 {
					t.Fatalf("window %d partitions into %d shards, want 3", round, n)
				}
				run, err := b.Start(WithArbiter(tc.arb))
				if err != nil {
					t.Fatal(err)
				}
				br, err := run.Wait()
				if err != nil {
					t.Fatalf("window %d: %v", round, err)
				}
				if replayed := br.Shards == 1; round == 0 && replayed != tc.replay {
					t.Fatalf("window %d ran on %d shards; want a sequential replay: %v", round, br.Shards, tc.replay)
				}
				want := freshSchedule(t, twin, twinOps, tc.arb)
				if br.Makespan != want.Makespan || br.Sequential != want.Sequential || br.Speedup != want.Speedup {
					t.Errorf("window %d: makespan %v, sequential %v, speedup %v; fresh requests give %v, %v, %v",
						round, br.Makespan, br.Sequential, br.Speedup, want.Makespan, want.Sequential, want.Speedup)
				}
				for i := range ops {
					if br.Completion[i] != want.Completion[i] {
						t.Errorf("window %d op %d (%v): completion %v, fresh requests give %v",
							round, i, ops[i].Op, br.Completion[i], want.Completion[i])
					}
				}
			}
		})
	}
}

// freshSchedule runs ops one at a time on s, builds each op's channel
// request afresh (freshRequest) and schedules them under arb, reporting
// the figures a window of the same ops reports.
func freshSchedule(t *testing.T, s *System, ops []BatchOp, arb Arbiter) BatchResult {
	t.Helper()
	reqs := make([]chansim.Request, len(ops))
	var back float64
	for i, op := range ops {
		reqs[i] = freshRequest(t, s, op)
		back += reqs[i].Duration()
	}
	carb, err := arb.internal()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := chansim.ScheduleWith(reqs, carb)
	if err != nil {
		t.Fatal(err)
	}
	out := BatchResult{Makespan: seconds(sched.Makespan), Sequential: seconds(back),
		Speedup: back / sched.Makespan}
	for _, c := range sched.Completion {
		out.Completion = append(out.Completion, seconds(c))
	}
	return out
}

// freshRequest runs op on s row chunk by row chunk through the scheduler,
// as Apply does, and turns each chunk's program into a channel request of
// its own (cmdstream.Program.Request) as soon as the chunk returns: the
// op's request is their concatenation, so it relies on no command
// outliving the scheduler call that lowered it. The op draws its faults
// from its own substream (beginOp), like an Apply.
func freshRequest(t *testing.T, s *System, op BatchOp) chansim.Request {
	t.Helper()
	s.beginOp()
	var req chansim.Request
	add := func(p cmdstream.Program) {
		r := p.Request(s.mem.Tech().Timing, s.ctl.Bus(), s.mem.Geometry())
		if req.Cmds == nil {
			req.Channel = r.Channel
		}
		req.Cmds = append(req.Cmds, r.Cmds...)
	}
	var sop sense.Op
	if op.Op != OpPopcount {
		var err error
		if sop, err = op.Op.internal(); err != nil {
			t.Fatal(err)
		}
	}
	for i, dst := range op.Dst.rows {
		bits := s.RowBits()
		if i == len(op.Dst.rows)-1 {
			bits = op.Dst.bits - i*s.RowBits()
		}
		var res *pimrt.ScheduleResult
		var err error
		if op.Op == OpPopcount {
			res, err = s.sched.Read(dst, bits)
		} else {
			rows := make([]memarch.RowAddr, len(op.Srcs))
			for j, src := range op.Srcs {
				rows[j] = src.rows[i]
			}
			res, err = s.sched.Execute(sop, rows, bits, dst)
		}
		if err != nil {
			t.Fatalf("%v row %d: %v", op.Op, i, err)
		}
		if res.FinalDst != dst {
			s.dropReplicas(dst)
			op.Dst.rows[i] = res.FinalDst
		}
		add(res.Program)
	}
	return req
}

// TestWindowLendsNoUnwrittenRow pins that a window lends a row the live
// memory never materialised without materialising it: a NOT from a
// never-written source and an OR of never-written sources, whose
// footprint names their subarray's scratch row, leave as many rows
// materialised through Batch as through Apply.
func TestWindowLendsNoUnwrittenRow(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(),
		{Tech: PCM, Resilience: ResilienceConfig{Verify: VerifyECC}}} {
		rows := func(batch bool) int {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := s.AllocGroup(5, 4096)
			if err != nil {
				t.Fatal(err)
			}
			ops := []BatchOp{
				{Op: OpNot, Dst: g[1], Srcs: g[:1]},
				{Op: OpOr, Dst: g[4], Srcs: g[2:4]},
			}
			for _, op := range ops {
				if batch {
					_, err = s.Batch([]BatchOp{op})
				} else {
					_, err = s.Apply(op.Op, op.Dst, op.Srcs)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return s.mem.MaterializedRows()
		}
		if applied, batched := rows(false), rows(true); applied != batched {
			t.Errorf("%v/%v: Apply leaves %d rows materialised, Batch %d",
				cfg.Tech, cfg.Resilience.Verify, applied, batched)
		}
	}
}
