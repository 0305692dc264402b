package bench

import (
	"fmt"
	"math/rand"
	"time"

	"pinatubo"
	"pinatubo/internal/bitvec"
)

// window-ecc: pipelined batch windows on faulty hardware under SECDED.
const (
	eccGroups       = 16   // one operand group per bank
	eccSrcs         = 8    // sources per group; the group's 9th vector is its destination
	eccWindows      = 5500 // measured windows at scale 1 (16 ops each)
	eccWarmWindows  = 4    // windows the set-up runs
	eccRewriteEvery = 8    // every 8th window boundary host-rewrites one group
	eccPool         = 24   // distinct rewrite payloads
	eccFaultSeed    = 7    // fixed: the fault stream is part of the workload, not the input
)

// eccConfig is PCM on the batch-spread geometry — one subarray per bank,
// so a group per subarray is a group per bank — with SECDED verification
// and sense flips at 1e-5. The MATs are 512 bits wide (2^16-bit rows,
// against 4096 and 2^19 in the batch figure), which keeps a window near
// 2 ms: a run then holds thousands of windows, enough for its p99 to be
// a median over segments.
func eccConfig() pinatubo.Config {
	cfg := pinatubo.DefaultConfig()
	cfg.Geometry = pinatubo.Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     16,
		SubarraysPerBank: 1,
		MatsPerSubarray:  16,
		RowsPerSubarray:  256,
		MatRowBits:       512,
		MuxRatio:         32,
	}
	cfg.Resilience.Verify = pinatubo.VerifyECC
	cfg.Fault = pinatubo.FaultConfig{Seed: eccFaultSeed, SenseFlipRate: 1e-5}
	return cfg
}

// eccOp is group g's op in window w: the five kinds rotate across groups
// and windows, so every window mixes an 8-source OR, AND, XOR, NOT and
// popcount over disjoint groups.
func eccOp(w, g int) (pinatubo.Op, []int) {
	switch (g + w) % 5 {
	case 0:
		return pinatubo.OpOr, []int{0, 1, 2, 3, 4, 5, 6, 7}
	case 1:
		return pinatubo.OpAnd, []int{0, 1}
	case 2:
		return pinatubo.OpXor, []int{2, 3}
	case 3:
		return pinatubo.OpNot, []int{4}
	default:
		return pinatubo.OpPopcount, nil
	}
}

// eccInput is the generated input of one seed: every group's initial
// sources and the payloads the host rewrites cycle through.
type eccInput struct {
	initial [eccGroups][eccSrcs]*bitvec.Vector
	pool    [eccPool]*bitvec.Vector
}

func eccInputs(seed int64, bits int) *eccInput {
	rng := rand.New(rand.NewSource(seed))
	in := &eccInput{}
	for g := range in.initial {
		for s := range in.initial[g] {
			in.initial[g][s] = randomVector(rng, bits)
		}
	}
	for i := range in.pool {
		in.pool[i] = randomVector(rng, bits)
	}
	return in
}

// runWindowECC drives pipelined windows the way pinatubod does: window
// N+1 is Added while window N executes, then N is waited and N+1
// started. Fault injection and ECC turn read-only row aliasing off, so
// every window deep-copies its shard sandboxes, runs one goroutine per
// bank and merges back; every eccRewriteEvery-th boundary rewrites one
// group's sources through the host path.
func runWindowECC(p *pass) error {
	cfg := eccConfig()
	bits := cfg.Geometry.RowBits()
	in := eccInputs(p.opts.Seed, bits)
	initial, pool := in.initial, in.pool
	windows := p.scaled(eccWindows)

	var (
		sys     *pinatubo.System
		b       *pinatubo.BatchBuilder
		groups  [eccGroups][]*pinatubo.BitVector
		ref     [eccGroups][eccSrcs + 1]*bitvec.Vector
		want    [eccGroups]int
		simBits float64
		sumNS   float64
		sumSpd  float64
		shards  int64
		waited  int64
	)
	dst := func(g int) *pinatubo.BitVector { return groups[g][eccSrcs] }
	// add admits window w's ops to the builder.
	add := func(w int) error {
		for g := range groups {
			op, idx := eccOp(w, g)
			srcs := make([]*pinatubo.BitVector, len(idx))
			for i, s := range idx {
				srcs[i] = groups[g][s]
			}
			if p.measuring {
				p.mix.add(op, len(srcs), bits)
			}
			err := p.call(spanBatchAdd, int64(w), nil, func() error {
				return b.Add(pinatubo.BatchOp{Op: op, Dst: dst(g), Srcs: srcs})
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	// reference applies window w to the oracle in program order.
	reference := func(w int) {
		id := p.begin(spanRef, int64(w))
		for g := range ref {
			op, idx := eccOp(w, g)
			srcs := make([]*bitvec.Vector, len(idx))
			for i, s := range idx {
				srcs[i] = ref[g][s]
			}
			want[g] = refApply(op, ref[g][eccSrcs], srcs)
			simBits += float64(bits)
		}
		p.end(id)
	}
	type inflight struct {
		run   *pinatubo.BatchRun
		begin time.Time // Start called
		exec  time.Time // Start returned
		done  chan time.Time
	}
	start := func(w int) (inflight, error) {
		reference(w)
		id := p.begin(spanBatchStart, int64(w))
		f := inflight{begin: clock()}
		run, err := b.Start()
		f.exec = clock()
		p.end(id)
		if err != nil {
			return f, err
		}
		f.run = run
		if p.tr != nil {
			// Note when the shards finish, for the exec span; finish
			// receives it after Wait, so the goroutine has ended by then.
			done := make(chan time.Time, 1)
			f.done = done
			go func() {
				<-run.Done()
				done <- clock()
			}()
		}
		return f, nil
	}
	// resync reloads the oracle's destinations from the program after a
	// window failed with a tolerated error (its effects are undefined).
	resync := func() error {
		for g := range groups {
			words, err := p.read(sys, dst(g), 0)
			if err != nil {
				return err
			}
			ref[g][eccSrcs] = bitvec.FromWords(bits, words)
		}
		return nil
	}
	finish := func(f inflight, w int) error {
		id := p.begin(spanBatchWait, int64(w))
		br, err := f.run.Wait()
		p.end(id)
		if p.measuring {
			p.sample(micros(since(f.begin)))
		}
		if p.tr != nil {
			p.tr.record(spanBatchExec, p.root, int64(w), f.exec, <-f.done)
		}
		if err != nil {
			p.failed.Add(eccGroups)
			if err := tolerate(err); err != nil {
				return err
			}
			return resync()
		}
		waited++
		shards += int64(br.Shards)
		sumNS += float64(br.Makespan.Nanoseconds())
		sumSpd += br.Speedup
		id = p.begin(spanRef, int64(w))
		for g, res := range br.Results {
			if res.Count != nil {
				p.check.count(*res.Count, want[g], func() string { return fmt.Sprintf("window %d group %d", w, g) })
			}
		}
		p.end(id)
		return nil
	}
	rewrite := func(k int) error {
		g := k % eccGroups
		for s := 0; s < eccSrcs; s++ {
			src := pool[(k+s)%eccPool]
			if err := p.write(sys, groups[g][s], src.Words(), int64(k)); err != nil {
				if err := tolerate(err); err != nil {
					return err
				}
				continue
			}
			ref[g][s].CopyFrom(src)
			simBits += float64(bits)
		}
		return nil
	}
	// runWindows runs windows [from, to) pipelined.
	runWindows := func(from, to int) error {
		if err := add(from); err != nil {
			return err
		}
		cur, err := start(from)
		if err != nil {
			return err
		}
		for w := from; w < to; w++ {
			if w+1 < to {
				if err := add(w + 1); err != nil {
					return err
				}
			}
			if err := finish(cur, w); err != nil {
				return err
			}
			if (w+1)%eccRewriteEvery == 0 {
				if err := rewrite((w + 1) / eccRewriteEvery); err != nil {
					return err
				}
			}
			if w+1 < to {
				if cur, err = start(w + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}

	err := p.timeSetup(func() error {
		s, err := pinatubo.New(cfg)
		if err != nil {
			return err
		}
		sys = s
		for g := range groups {
			// A whole subarray per group: with one subarray per bank, the
			// groups own disjoint banks and scratch rows, so a window's 16
			// ops shard 16 ways. Only the first 9 rows are ever written.
			if groups[g], err = p.allocGroup(sys, sys.UsableRowsPerSubarray(), bits); err != nil {
				return err
			}
			for s := 0; s < eccSrcs; s++ {
				if err := p.write(sys, groups[g][s], initial[g][s].Words(), 0); err != nil {
					return err
				}
				ref[g][s] = initial[g][s].Clone()
			}
			ref[g][eccSrcs] = bitvec.New(bits)
		}
		b = sys.NewBatchBuilder()
		return runWindows(0, eccWarmWindows)
	})
	if err != nil {
		return err
	}

	before := snapshot(sys)
	a0 := p.attempted.Load()
	simBits, sumNS, sumSpd, shards, waited = 0, 0, 0, 0, 0
	ph := p.startPhase(windows)
	err = runWindows(eccWarmWindows, eccWarmWindows+windows)
	if err != nil {
		return err
	}
	calls := p.attempted.Load() - a0
	p.endPhase(ph, calls)
	p.primary = p.wall / float64(calls)
	after := snapshot(sys)
	ops := int64(windows) * eccGroups
	p.extra = []Metric{
		{Name: "sim_ns_per_op", Unit: "ns", Value: ratio(sumNS, float64(ops))},
		{Name: "sim_pj_per_bit", Unit: "pJ/bit", Value: ratio((after.stats.EnergyJoules-before.stats.EnergyJoules)*1e12, simBits)},
	}
	p.counterLayers(before, after, calls, simBits)
	p.layers["sim_ns_per_op"] = p.extra[0].Value
	p.layers["batch.shards_per_window"] = ratio(float64(shards), float64(waited))
	p.layers["chansim.speedup"] = ratio(sumSpd, float64(waited))
	p.layers["chansim.makespan_ns"] = ratio(sumNS, float64(waited))
	if p.tr != nil {
		if err := p.replays(cfg, bits); err != nil {
			return err
		}
	}

	for g := range groups {
		words, err := p.read(sys, dst(g), 0)
		if err != nil {
			return err
		}
		p.check.words(words, ref[g][eccSrcs], func() string { return fmt.Sprintf("final destination of group %d", g) })
	}
	return nil
}
