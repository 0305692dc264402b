package pinatubo

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
)

// shardSet is an incremental union-find over op footprints: ops that share
// any footprint key coalesce into one shard. Unlike a from-scratch
// partition, adding op N is O(|footprint(N)|·α) — the structure a
// batch-window admission loop grows one request at a time while the
// previous window is still executing.
type shardSet struct {
	parent []int
	owner  map[fpKey]int
}

func newShardSet() *shardSet {
	return &shardSet{owner: make(map[fpKey]int)}
}

// add appends the next op (index len(parent) before the call) and unions
// it with every earlier op it shares a key with.
func (ss *shardSet) add(fp []fpKey) {
	i := len(ss.parent)
	ss.parent = append(ss.parent, i)
	for _, k := range fp {
		if j, ok := ss.owner[k]; ok {
			ss.union(i, j)
		} else {
			ss.owner[k] = i
		}
	}
}

// find returns x's root with path halving.
func (ss *shardSet) find(x int) int {
	for ss.parent[x] != x {
		ss.parent[x] = ss.parent[ss.parent[x]]
		x = ss.parent[x]
	}
	return x
}

func (ss *shardSet) union(a, b int) {
	ra, rb := ss.find(a), ss.find(b)
	if ra != rb {
		ss.parent[ra] = rb
	}
}

// count returns the number of shards without materialising them.
func (ss *shardSet) count() int {
	n := 0
	for i := range ss.parent {
		if ss.find(i) == i {
			n++
		}
	}
	return n
}

// shards returns the partition as op-index lists, each ascending, ordered
// by first op — the same deterministic shape the batch merge relies on.
func (ss *shardSet) shards() [][]int {
	index := make(map[int]int)
	var shards [][]int
	for i := range ss.parent {
		root := ss.find(i)
		si, ok := index[root]
		if !ok {
			si = len(shards)
			index[root] = si
			shards = append(shards, nil)
		}
		shards[si] = append(shards[si], i)
	}
	return shards
}

// BatchBuilder accumulates a batch incrementally: each Add validates the
// op, computes its resource footprint and grows the shard partition in
// place. A builder is how a service overlaps admission with execution —
// requests arriving while window N runs are Added to window N+1's
// builder, and by the time window N finishes, N+1's sharding is already
// computed. Builders are not goroutine-safe: Add, Start and Wait must all
// run on the goroutine that owns the System (the shard execution inside a
// BatchRun is what parallelises, not the builder).
type BatchBuilder struct {
	sys        *System
	ops        []BatchOp
	footprints [][]fpKey
	ss         *shardSet
	gen        uint64
}

// NewBatchBuilder returns an empty builder bound to s.
func (s *System) NewBatchBuilder() *BatchBuilder {
	return &BatchBuilder{sys: s, ss: newShardSet(), gen: s.layoutGen}
}

// Add validates one op and admits it to the pending batch, growing the
// shard partition incrementally. The op is not executed until Start.
func (b *BatchBuilder) Add(op BatchOp) error {
	if err := b.refresh(); err != nil {
		return err
	}
	i := len(b.ops)
	if err := b.sys.validateOp(op.Op, op.Dst, op.Srcs); err != nil {
		return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
	}
	fp, err := b.sys.opFootprint(op)
	if err != nil {
		return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
	}
	b.ops = append(b.ops, op)
	b.footprints = append(b.footprints, fp)
	b.ss.add(fp)
	return nil
}

// Len returns the number of ops admitted so far.
func (b *BatchBuilder) Len() int { return len(b.ops) }

// Shards returns how many independent shards the admitted ops currently
// partition into — the concurrency the window would run at if Started
// now. An admission controller compares this against the planner's
// saturation point to decide when a window is full.
func (b *BatchBuilder) Shards() int {
	if len(b.ops) == 0 {
		return 0
	}
	return b.ss.count()
}

// refresh recomputes every footprint when the system's row layout moved
// (a remap, Free or replica teardown) since they were computed. Rare:
// only fault-induced retirements and frees bump the generation.
func (b *BatchBuilder) refresh() error {
	if b.gen == b.sys.layoutGen {
		return nil
	}
	ss := newShardSet()
	for i, op := range b.ops {
		if err := b.sys.validateOp(op.Op, op.Dst, op.Srcs); err != nil {
			return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
		}
		fp, err := b.sys.opFootprint(op)
		if err != nil {
			return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
		}
		b.footprints[i] = fp
		ss.add(fp)
	}
	b.ss = ss
	b.gen = b.sys.layoutGen
	return nil
}

// shardState is one shard's sandboxed execution environment: an isolated
// System seeded with the shard's footprint rows, plus mirrors of the live
// operand vectors bound to it.
type shardState struct {
	sys  *System
	vecs map[*BitVector]*BitVector
}

// BatchRun is a batch in flight. Between Start and Wait its workers touch
// only the shard sandboxes, never the live System — so the owning
// goroutine is free to keep Adding to the next window's builder, answer
// host reads of untouched vectors, or Plan. All live-state mutation (the
// merge) happens inside Wait, on the caller's goroutine.
type BatchRun struct {
	sys       *System
	ops       []BatchOp
	shards    [][]int
	states    []shardState
	arb       Arbiter
	ctx       context.Context
	opSeqBase int64

	// nextShard hands shard indices to the workers; running counts the
	// workers still working, and the one that brings it to zero closes
	// done.
	nextShard atomic.Int64
	running   atomic.Int64

	results []Result
	progs   []cmdstream.Program
	errs    []error
	ctxErrs []error
	done    chan struct{}

	// Owned by the caller's Wait: workers report through the
	// results/errs/ctxErrs slots and done, never through these.
	waited bool        //pinlint:owned Wait
	res    BatchResult //pinlint:owned Wait
	err    error       //pinlint:owned Wait
}

// Start launches the admitted batch: it lends the live rows every shard
// needs to per-shard sandboxes (synchronously, on the calling goroutine;
// a sandbox copies a row only when it first writes it) and starts
// min(GOMAXPROCS, shards) workers, each of which takes the next unrun
// shard until none is left. After Start returns, the live System is not
// touched again until Wait — the window executes entirely on sandboxes,
// which only read the lent rows, and that is what makes overlapping the
// next window's admission race-free. Shards share nothing, so which
// worker runs which shard changes no result. The builder is reset to
// empty.
//
// Start always sandboxes, even a single-shard window: the point is
// overlap, and the merge in Wait keeps every integer counter exact (float
// totals are summed per shard, so they can differ from the op-order sum
// by ULPs).
func (b *BatchBuilder) Start(opts ...Option) (*BatchRun, error) {
	o, err := resolveOpts(opts)
	if err != nil {
		return nil, err
	}
	if _, err := o.arb.internal(); err != nil {
		return nil, err
	}
	if len(b.ops) == 0 {
		return nil, fmt.Errorf("pinatubo: empty batch")
	}
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.refresh(); err != nil {
		return nil, err
	}
	s := b.sys
	ops := b.ops
	shards := b.ss.shards()
	states, err := s.prepareShards(ops, b.footprints, shards)
	if err != nil {
		return nil, err
	}
	r := &BatchRun{
		sys:     s,
		ops:     ops,
		shards:  shards,
		states:  states,
		arb:     o.arb,
		ctx:     o.ctx,
		results: make([]Result, len(ops)),
		progs:   make([]cmdstream.Program, len(ops)),
		errs:    make([]error, len(ops)),
		ctxErrs: make([]error, len(shards)),
		done:    make(chan struct{}),
	}
	if liveInj := s.ctl.Injector(); liveInj != nil {
		r.opSeqBase = liveInj.OpSeq()
	}
	b.ops, b.footprints, b.ss = nil, nil, newShardSet()

	workers := min(runtime.GOMAXPROCS(0), len(shards))
	r.running.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go r.work()
	}
	return r, nil
}

// work is one worker: it runs shards, in the order it claims them, until
// none is left; the last worker to finish closes done.
func (r *BatchRun) work() {
	for {
		si := int(r.nextShard.Add(1)) - 1
		if si >= len(r.shards) {
			break
		}
		r.runShard(si)
	}
	if r.running.Add(-1) == 0 {
		close(r.done)
	}
}

// runShard executes shard si's ops in order on its sandbox. It stops at
// the first failing op, recording its error, or when the run's context is
// cancelled, recording that for the shard.
func (r *BatchRun) runShard(si int) {
	st := r.states[si]
	inj := st.sys.ctl.Injector()
	for _, i := range r.shards[si] {
		if err := r.ctx.Err(); err != nil {
			r.ctxErrs[si] = err
			return
		}
		if inj != nil {
			// Pin the sandbox to op i's substream: apply's beginOp
			// advances it to opSeqBase+i+1, the exact stream the op
			// would draw running sequentially on the live system.
			inj.SetOpSeq(r.opSeqBase + int64(i))
		}
		srcs := make([]*BitVector, len(r.ops[i].Srcs))
		for j, src := range r.ops[i].Srcs {
			srcs[j] = st.vecs[src]
		}
		res, err := st.sys.applyOpts(r.ops[i].Op, st.vecs[r.ops[i].Dst], srcs, callOpts{})
		if err != nil {
			r.errs[i] = err
			return
		}
		r.results[i] = res
		r.progs[i].Append(st.sys.prog)
	}
}

// Done is closed when every shard has finished (or stopped on
// cancellation) and its worker has returned. A service loop selects on it
// to know the window is ready to Wait without blocking admission.
func (r *BatchRun) Done() <-chan struct{} {
	return r.done
}

// Wait joins the shards and merges their effects into the live System.
// It must be called from the goroutine that owns the System (the same
// one that called Start). Wait is idempotent: later calls return the
// first call's result.
//
// If the run's context was cancelled before the shards finished, nothing
// merges: every sandbox is discarded and the System is exactly as if the
// window never ran — the all-or-nothing guarantee a service needs to
// retry or shed the window's requests. The exception is a fault-injected
// run that retired a row mid-window: that falls back to a sequential
// replay on the live system, where cancellation stops between ops and
// the completed prefix stays applied.
func (r *BatchRun) Wait() (BatchResult, error) {
	<-r.done
	if r.waited {
		return r.res, r.err
	}
	r.waited = true
	r.res, r.err = r.finish()
	return r.res, r.err
}

func (r *BatchRun) finish() (BatchResult, error) {
	// Every worker has returned (Wait saw done close), so the
	// sandboxes are quiescent; whatever path finish takes — merge, replay
	// or discard — they go back to the pool on the way out.
	defer r.release()
	for _, e := range r.ctxErrs {
		if e != nil {
			// Cancelled mid-window: the sandboxes hold partial state the
			// live system never sees. Drop them wholesale.
			return BatchResult{}, e
		}
	}
	s := r.sys
	liveInj := s.ctl.Injector()
	if liveInj != nil {
		// A sandbox that touched its allocator hit a row retirement (remap,
		// replica teardown) or failed an op outright: its side effects
		// cannot merge into the live allocator's address space. The live
		// system was never touched, so replaying sequentially here yields
		// exactly the sequential execution — same substreams, same faults,
		// same remaps — at the cost of the concurrency.
		replay := false
		for i := range r.ops {
			if r.errs[i] != nil {
				replay = true
			}
		}
		for si := range r.shards {
			sh := r.states[si].sys
			if sh.alloc.AllocatedRows() != 0 || sh.alloc.RetiredRows() != 0 {
				replay = true
			}
		}
		if replay {
			for i := range r.results {
				r.results[i] = Result{}
			}
			if err := s.runSequential(r.ctx, r.ops, r.results, r.progs); err != nil {
				return BatchResult{}, err
			}
			return s.scheduleBatch(r.ops, r.progs, r.results, 1, r.arb)
		}
	}

	geo := s.mem.Geometry()
	for si := range r.shards {
		sh := r.states[si].sys
		// A row still borrowed was only read, so the live row, its check
		// words and its wear are current. A row the shard programmed comes
		// back with the check words and the wear programming it left.
		for _, a := range sh.mem.OwnedAddrs() {
			s.mem.CopyRow(a, sh.mem)
			if bits, words, ok := sh.ctl.ECCState(a); ok {
				s.ctl.SetECCState(a, bits, words)
			}
			if st, ok := sh.ctl.Injector().RowState(geo.Encode(a)); ok {
				liveInj.SetRowState(geo.Encode(a), st)
			}
		}
		s.mem.AbsorbCounters(sh.mem)
		s.led.Absorb(sh.led)
		for live, mirror := range r.states[si].vecs {
			copy(live.rows, mirror.rows)
		}
	}
	if liveInj != nil {
		// Leave the live injector where sequential execution would have:
		// the next public op begins substream opSeqBase+len(ops)+1.
		liveInj.SetOpSeq(r.opSeqBase + int64(len(r.ops)))
	}
	for i := range r.ops {
		if r.errs[i] != nil {
			return BatchResult{}, fmt.Errorf("pinatubo: batch op %d (%v): %w", i, r.ops[i].Op, r.errs[i])
		}
	}
	return s.scheduleBatch(r.ops, r.progs, r.results, len(r.shards), r.arb)
}

// release returns every shard sandbox to the pool and drops the run's
// references to them. Called exactly once, from finish, after every
// worker has returned.
func (r *BatchRun) release() {
	for i := range r.states {
		r.sys.putSandbox(r.states[i].sys)
		r.states[i] = shardState{}
	}
	r.states = nil
}

// prepareShards lends the live state every shard's ops can touch to
// per-shard sandbox Systems: each footprint row is borrowed from the live
// memory (copied only when the shard first writes it) with its ECC check
// words shared, replica registrations and per-row fault-injector state are
// copied in, and mirror BitVectors are bound to the sandbox. The live
// System is untouched between Start and Wait, so the lent words cannot
// change under a shard. Sandboxes come from the System's pool — a reused
// one is reset to fresh-construction state first — and go back to it when
// the run finishes.
func (s *System) prepareShards(ops []BatchOp, footprints [][]fpKey, shards [][]int) ([]shardState, error) {
	geo := s.mem.Geometry()
	states := make([]shardState, len(shards))
	for si, shard := range shards {
		sh, err := s.getSandbox()
		if err != nil {
			for _, st := range states {
				s.putSandbox(st.sys)
			}
			return nil, err
		}
		states[si].sys = sh
		for _, i := range shard {
			for _, k := range footprints[i] {
				if k.kind != 'r' || sh.mem.Borrowed(k.addr) {
					continue
				}
				sh.mem.BorrowRow(k.addr, s.mem)
				if bits, words, ok := s.ctl.ECCState(k.addr); ok {
					sh.ctl.SetECCState(k.addr, bits, words)
				}
				if reps := s.replicaRows(k.addr); reps != nil {
					sh.registerReplicas(k.addr, reps)
				}
				if st, ok := s.ctl.Injector().RowState(geo.Encode(k.addr)); ok {
					sh.ctl.Injector().SetRowState(geo.Encode(k.addr), st)
				}
			}
		}
		vecs := make(map[*BitVector]*BitVector)
		mirror := func(b *BitVector) *BitVector {
			v, ok := vecs[b]
			if !ok {
				v = &BitVector{sys: sh, bits: b.bits,
					rows: append([]memarch.RowAddr(nil), b.rows...)}
				vecs[b] = v
			}
			return v
		}
		for _, i := range shard {
			mirror(ops[i].Dst)
			for _, src := range ops[i].Srcs {
				mirror(src)
			}
		}
		states[si].vecs = vecs
	}
	return states, nil
}
