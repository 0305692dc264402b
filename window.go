package pinatubo

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"pinatubo/internal/chansim"
	"pinatubo/internal/memarch"
)

// shardSet is an incremental union-find over op footprints: ops that share
// any footprint key coalesce into one shard. Unlike a from-scratch
// partition, adding op N is O(|footprint(N)|·α) — the structure a
// batch-window admission loop grows one request at a time while the
// previous window is still executing. reset empties it and keeps its
// storage, so a builder's steady windows grow nothing.
type shardSet struct {
	parent []int
	owner  map[fpKey]int
	// slot and sizes are shards' scratch: slot[root] is the shard index
	// of the ops under root, sizes[si] shard si's op count.
	slot  []int
	sizes []int
}

// add appends the next op (index len(parent) before the call) and unions
// it with every earlier op it shares a key with.
func (ss *shardSet) add(fp []fpKey) {
	if ss.owner == nil {
		ss.owner = make(map[fpKey]int)
	}
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

// reset empties the partition for the next window.
func (ss *shardSet) reset() {
	clear(ss.owner)
	ss.parent = ss.parent[:0]
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
// by first op — the same deterministic shape the batch merge relies on. A
// shard takes its index at its first op, which need not be its root: a
// union can hang an earlier root under a later one. The lists share one
// new backing array, so they outlive a reset.
func (ss *shardSet) shards() [][]int {
	n := len(ss.parent)
	ss.slot = slices.Grow(ss.slot[:0], n)[:n]
	for i := range ss.slot {
		ss.slot[i] = -1
	}
	ss.sizes = ss.sizes[:0]
	for i := range n {
		root := ss.find(i)
		if ss.slot[root] < 0 {
			ss.slot[root] = len(ss.sizes)
			ss.sizes = append(ss.sizes, 0)
		}
		ss.sizes[ss.slot[root]]++
	}
	ops := make([]int, n)
	shards := make([][]int, len(ss.sizes))
	off := 0
	for si, size := range ss.sizes {
		shards[si] = ops[off : off : off+size]
		off += size
	}
	for i := range n {
		si := ss.slot[ss.find(i)]
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
//
// A builder keeps its bookkeeping from window to window: the footprint
// key buffer, the operand-row scratch and the partition are emptied by
// Start, not rebuilt, so a steady stream of windows stops allocating
// them.
type BatchBuilder struct {
	sys *System
	ops []BatchOp
	// keys holds every admitted op's footprint back to back: op i's keys
	// end at ends[i] and start where op i-1's end.
	keys []fpKey
	ends []int
	// rows is opFootprint's operand-row scratch.
	rows []memarch.RowAddr
	ss   shardSet
	gen  uint64
}

// NewBatchBuilder returns an empty builder bound to s.
func (s *System) NewBatchBuilder() *BatchBuilder {
	return &BatchBuilder{sys: s, gen: s.alloc.Gen()}
}

// Add validates one op and admits it to the pending batch, growing the
// shard partition incrementally. The op is not executed until Start.
func (b *BatchBuilder) Add(op BatchOp) error {
	if err := b.refresh(); err != nil {
		return err
	}
	if err := b.admit(len(b.ops), op); err != nil {
		return err
	}
	b.ops = append(b.ops, op)
	return nil
}

// admit validates op, the batch's op i, appends its footprint to the key
// buffer and adds it to the partition. A rejected op leaves both as they
// were.
func (b *BatchBuilder) admit(i int, op BatchOp) error {
	if err := b.sys.validateOp(op.Op, op.Dst, op.Srcs); err != nil {
		return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
	}
	start := len(b.keys)
	if err := b.opFootprint(op); err != nil {
		b.keys = b.keys[:start]
		return fmt.Errorf("pinatubo: batch op %d (%v): %w", i, op.Op, err)
	}
	b.ends = append(b.ends, len(b.keys))
	b.ss.add(b.keys[start:])
	return nil
}

// footprint returns op i's keys.
func (b *BatchBuilder) footprint(i int) []fpKey {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.keys[start:b.ends[i]]
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
// since they were computed: the allocator's generation advances on every
// Free and retirement (a remap, Free or replica teardown). Rare: only
// those move a row an admitted op names.
func (b *BatchBuilder) refresh() error {
	if b.gen == b.sys.alloc.Gen() {
		return nil
	}
	b.keys, b.ends = b.keys[:0], b.ends[:0]
	b.ss.reset()
	for i, op := range b.ops {
		if err := b.admit(i, op); err != nil {
			return err
		}
	}
	b.gen = b.sys.alloc.Gen()
	return nil
}

// reset empties the builder for the next window, keeping its buffers. The
// admitted ops are cleared first, so the builder holds no vector of a
// window that has left it.
func (b *BatchBuilder) reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
	b.keys, b.ends = b.keys[:0], b.ends[:0]
	b.ss.reset()
}

// BatchRun is a batch in flight. Between Start and Wait its workers touch
// only the shard sandboxes and the System's program cache, which is safe
// for concurrent use, never the live System's state — so the owning
// goroutine is free to keep Adding to the next window's builder, answer
// host reads of untouched vectors, or Plan. All live-state mutation (the
// merge) happens inside Wait, on the caller's goroutine. A run keeps its
// own copy of the ops and its own partition, because the builder admits
// the next window into its buffers while this one runs.
type BatchRun struct {
	sys       *System
	ops       []BatchOp
	shards    [][]int
	sandboxes []*System
	arb       Arbiter
	ctx       context.Context
	opSeqBase int64
	// sequential says Start found a retired row in the window's
	// footprint: no shard runs, and Wait replays the window on the live
	// System.
	sequential bool

	// nextShard hands shard indices to the workers; running counts the
	// workers still working, and the one that brings it to zero closes
	// done.
	nextShard atomic.Int64
	running   atomic.Int64

	results []Result
	// reqs[i] is op i's channel request, built from its program by the
	// worker that ran it (or by the sequential replay).
	reqs    []chansim.Request
	errs    []error
	ctxErrs []error
	done    chan struct{}

	// Owned by the caller's Wait: workers report through the
	// results/reqs/errs/ctxErrs slots and done, never through these.
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
// next window's admission race-free. Shards share nothing but the
// program cache, whose lowerings are pure, so which worker runs which
// shard changes no result. The builder is reset to empty.
//
// Start sandboxes even a single-shard window: the point is overlap, and
// the merge in Wait keeps every integer counter exact (float totals are
// summed per shard, so they can differ from the op-order sum by ULPs).
// The exception is a window whose footprint names a retired row, such as
// a scratch row worn out by an earlier OR: sequential execution puts a
// partial in a row on loan from the live allocator, which a shard cannot
// do, so Start takes no sandbox and starts no worker, and Wait replays
// the window on the live System.
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
	n := len(b.ops)
	r := &BatchRun{
		sys:     s,
		ops:     slices.Clone(b.ops),
		arb:     o.arb,
		ctx:     o.ctx,
		results: make([]Result, n),
		reqs:    make([]chansim.Request, n),
		errs:    make([]error, n),
		done:    make(chan struct{}),
	}
	if b.touchesRetired() {
		r.sequential = true
		close(r.done)
		b.reset()
		return r, nil
	}
	r.shards = b.ss.shards()
	if r.sandboxes, err = b.prepareShards(r.shards); err != nil {
		return nil, err
	}
	r.ctxErrs = make([]error, len(r.shards))
	if liveInj := s.ctl.Injector(); liveInj != nil {
		r.opSeqBase = liveInj.OpSeq()
	}
	b.reset()

	workers := min(runtime.GOMAXPROCS(0), len(r.shards))
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

// runShard executes shard si's ops in order on its sandbox, through the
// row executor Apply uses (applyRows). The ops were validated at
// admission. Each reads its sources through the live vectors' rows, which
// nothing moves between Start and Wait, and writes through the sandbox's
// copy of its destination rows (shardDst), so a remap inside the shard
// never reaches a live vector: it touches the sandbox's allocator, which
// sends the window to the sequential replay. Each op's program becomes
// its channel request as soon as the op returns, on the worker: the
// sandbox prices it with its own timing, bus and geometry, which are the
// live System's. runShard stops at the first failing op, recording its
// error, or when the run's context is cancelled, recording that for the
// shard.
func (r *BatchRun) runShard(si int) {
	sb := r.sandboxes[si]
	inj := sb.ctl.Injector()
	for _, i := range r.shards[si] {
		if err := r.ctx.Err(); err != nil {
			r.ctxErrs[si] = err
			return
		}
		if inj != nil {
			// Pin the sandbox to op i's substream: applyRows' beginOp
			// advances it to opSeqBase+i+1, the exact stream the op
			// would draw running sequentially on the live system.
			inj.SetOpSeq(r.opSeqBase + int64(i))
		}
		op := r.ops[i]
		sb.shardDst = append(sb.shardDst[:0], op.Dst.rows...)
		res, err := sb.applyRows(op.Op, sb.shardDst, op.Dst.bits, op.Srcs, callOpts{})
		if err != nil {
			r.errs[i] = err
			return
		}
		r.results[i] = res
		r.reqs[i] = sb.opRequest()
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
// run that retired a row mid-window, or whose footprint named a retired
// row at Start: that falls back to a sequential replay on the live
// system, where cancellation stops between ops and the completed prefix
// stays applied.
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
	if r.sequential || r.replay(liveInj != nil) {
		clear(r.results)
		if err := s.runSequential(r.ctx, r.ops, r.results, r.reqs); err != nil {
			return BatchResult{}, err
		}
		return s.scheduleBatch(r.reqs, r.results, 1, r.arb)
	}

	// The merge copies row records, never a vector's row list: a shard
	// moves a destination row only in its sandbox's copy, through its
	// allocator's Remap, which retires and allocates, and that sends the
	// window to the replay.
	for _, sb := range r.sandboxes {
		// A row still borrowed was only read, so the live record is
		// current. A row the shard changed comes back whole: words,
		// program count, check words, wear and replica group.
		s.ownedRows = sb.mem.AppendOwnedAddrs(s.ownedRows[:0])
		for _, a := range s.ownedRows {
			s.mem.CopyRow(a, sb.mem)
		}
		s.led.Absorb(sb.led)
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
	return s.scheduleBatch(r.reqs, r.results, len(r.shards), r.arb)
}

// replay reports whether the window must run again, sequentially, on the
// live system instead of merging. A sandbox that touched its allocator
// hit a row retirement (remap, replica teardown): its side effects cannot
// merge into the live allocator's address space. Under fault injection a
// shard that failed an op outright replays too, so its error is the one
// sequential execution returns. The live system was never touched, so
// the replay yields exactly the sequential execution — same substreams,
// same faults, same remaps — at the cost of the concurrency.
func (r *BatchRun) replay(injected bool) bool {
	for _, sb := range r.sandboxes {
		if sb.alloc.AllocatedRows() != 0 || sb.alloc.RetiredRows() != 0 {
			return true
		}
	}
	if injected {
		for _, err := range r.errs {
			if err != nil {
				return true
			}
		}
	}
	return false
}

// release returns every shard sandbox to the pool and drops the run's
// references to them. Called exactly once, from finish, after every
// worker has returned.
func (r *BatchRun) release() {
	for _, sb := range r.sandboxes {
		r.sys.putSandbox(sb)
	}
	r.sandboxes = nil
}

// prepareShards lends the live state every shard's ops can touch to
// per-shard sandbox Systems: each footprint row's record, replica group
// included, is borrowed from the live memory (its words copied only when
// the shard first changes the row). The live System is
// untouched between Start and Wait, so the lent records, and the live
// vectors' rows the shards run on, cannot change under a shard. Sandboxes
// come from the System's pool — a reused one is reset to
// fresh-construction state first — and go back to it when the run
// finishes.
func (b *BatchBuilder) prepareShards(shards [][]int) ([]*System, error) {
	s := b.sys
	sandboxes := make([]*System, len(shards))
	for si, shard := range shards {
		sh, err := s.getSandbox()
		if err != nil {
			for _, sb := range sandboxes[:si] {
				s.putSandbox(sb)
			}
			return nil, err
		}
		sandboxes[si] = sh
		for _, i := range shard {
			for _, k := range b.footprint(i) {
				if k.kind != 'r' || sh.mem.Borrowed(k.addr) {
					continue
				}
				sh.mem.BorrowRow(k.addr, s.mem)
			}
		}
	}
	return sandboxes, nil
}

// touchesRetired reports whether a row in the admitted ops' footprints
// is retired (Start replays such a window). While no row is retired it
// makes no map lookup.
func (b *BatchBuilder) touchesRetired() bool {
	for _, k := range b.keys {
		if k.kind == 'r' && b.sys.alloc.Retired(k.addr) {
			return true
		}
	}
	return false
}
