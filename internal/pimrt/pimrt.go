// Package pimrt is Pinatubo's system-software stack (the paper's Fig. 4):
// the PIM-aware allocator behind pim_malloc (bit-vectors must land in
// distinct rows, groups of vectors that will be operated on together should
// share a subarray), the mapper that turns logical bit-vector IDs into row
// addresses, and the scheduler that lowers a logical multi-operand request
// into the per-subarray intra ops plus inter-subarray/bank combines the
// hardware actually runs. The scheduler also carries the host's row reads
// and writes (Scheduler.Read, Scheduler.Write), so it is the only code that
// verifies, retries or retires a row. The evaluation's Pinatubo engines
// (Engine) price every request through that same scheduler.
package pimrt

import (
	"errors"
	"fmt"
	"slices"

	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// ErrOutOfMemory is returned when no rows are left.
var ErrOutOfMemory = errors.New("pimrt: out of memory rows")

// Allocator hands out rank-logical rows with subarray affinity. It is the
// model of the modified C run-time allocator plus the OS mapping policy:
// allocations walk subarrays sequentially so that consecutively allocated
// bit-vectors (the common "operate on these together" case) share one.
type Allocator struct {
	geo memarch.Geometry
	// free holds the encoded addresses of explicitly freed rows, ascending
	// and without duplicates; they are reused, lowest first, before fresh
	// rows.
	free    []uint64
	retired map[uint64]bool // worn-out rows, permanently out of circulation
	next    uint64          // next never-allocated row index
	max     uint64
	// tail is how many rows at the end of every subarray are reserved and
	// never handed out: the scheduler's scratch row plus whatever the
	// technology backend claims as compute rows (Caps().ComputeRows).
	tail int
	// gen is the layout generation (Gen).
	gen uint64
}

// NewAllocatorTail builds an allocator over the whole memory that keeps
// the last tail rows of every subarray out of circulation. The System
// sizes the tail as one scratch row (the scheduler's partial-result row,
// which ScratchRow returns) plus the backend's reserved compute rows, so
// a backend that claims designated rows (the DRAM TRA group) can never
// collide with data.
func NewAllocatorTail(geo memarch.Geometry, tail int) (*Allocator, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if tail < 0 || tail >= geo.RowsPerSubarray {
		return nil, fmt.Errorf("pimrt: reserved tail of %d rows outside 0..%d",
			tail, geo.RowsPerSubarray-1)
	}
	return &Allocator{
		geo:     geo,
		retired: make(map[uint64]bool),
		max:     uint64(geo.TotalRows()),
		tail:    tail,
	}, nil
}

// UsableRowsPerSubarray reports how many rows of each subarray the
// allocator may hand out.
func (a *Allocator) UsableRowsPerSubarray() int { return a.geo.RowsPerSubarray - a.tail }

// ScratchRow returns the reserved scratch row of the subarray containing a.
func ScratchRow(geo memarch.Geometry, a memarch.RowAddr) memarch.RowAddr {
	a.Row = geo.RowsPerSubarray - 1
	return a
}

// skipReserved advances the frontier past the reserved tail rows.
func (a *Allocator) skipReserved() {
	if a.tail == 0 {
		return
	}
	per := uint64(a.geo.RowsPerSubarray)
	for a.next < a.max && a.next%per >= per-uint64(a.tail) {
		a.next++
	}
}

// RowsLeft reports how many rows AllocRows could still hand out: the free
// list plus the usable rows beyond the frontier.
func (a *Allocator) RowsLeft() int {
	per, usable := uint64(a.geo.RowsPerSubarray), uint64(a.UsableRowsPerSubarray())
	below := func(row uint64) uint64 { return row/per*usable + min(row%per, usable) }
	return len(a.free) + int(below(a.max)-below(a.next))
}

// AllocRows returns n rows. Rows come from the free list first, then from
// the sequential frontier (which fills subarray after subarray, giving
// adjacent allocations intra-subarray placement). A request for more rows
// than are left fails before it takes or allocates anything, and any
// failed call takes no rows.
func (a *Allocator) AllocRows(n int) ([]memarch.RowAddr, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pimrt: alloc of %d rows", n)
	}
	if left := a.RowsLeft(); n > left {
		return nil, fmt.Errorf("pimrt: allocating %d rows (%d left): %w", n, left, ErrOutOfMemory)
	}
	start := a.next
	out := make([]memarch.RowAddr, 0, n)
	// Reuse freed rows in ascending order for determinism: the free list's
	// prefix.
	reused := min(n, len(a.free))
	for _, k := range a.free[:reused] {
		out = append(out, a.geo.Decode(k))
	}
	a.free = slices.Delete(a.free, 0, reused)
	for len(out) < n {
		a.skipReserved()
		if a.next >= a.max {
			a.Rollback(start, out)
			return nil, fmt.Errorf("pimrt: allocating %d rows (%d still needed): %w",
				n, n-len(out), ErrOutOfMemory)
		}
		out = append(out, a.geo.Decode(a.next))
		a.next++
	}
	return out, nil
}

// AllocGroupRows returns n rows guaranteed to share one subarray (needed
// when the caller wants one-step multi-row ops over the whole group). It
// fails if n exceeds the subarray's row count. Freed rows are reused
// first: the lowest subarray holding n of them gives its n lowest, and
// only when no subarray does is the frontier advanced. A failed call
// takes no rows.
func (a *Allocator) AllocGroupRows(n int) ([]memarch.RowAddr, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pimrt: alloc of %d rows", n)
	}
	avail := a.UsableRowsPerSubarray()
	if n > avail {
		return nil, fmt.Errorf("pimrt: group of %d rows exceeds subarray (%d usable rows)",
			n, avail)
	}
	if out := a.freeGroup(n); out != nil {
		return out, nil
	}
	start := a.next
	// Advance the frontier to a subarray boundary if the group would
	// straddle one (counting the reserved tail rows as unusable).
	per := uint64(a.geo.RowsPerSubarray)
	used := a.next % per
	if used+uint64(n) > uint64(avail) {
		a.next += per - used
	}
	if a.next+uint64(n) > a.max {
		a.next = start
		return nil, fmt.Errorf("pimrt: allocating a %d-row group: %w", n, ErrOutOfMemory)
	}
	out := make([]memarch.RowAddr, n)
	for i := range out {
		out[i] = a.geo.Decode(a.next)
		a.next++
	}
	return out, nil
}

// freeGroup takes n free rows sharing one subarray off the free list —
// the lowest such subarray, its rows in ascending order — or returns nil
// when no subarray holds n. Retired rows never sit on the free list;
// reserved tail rows are skipped in case a caller freed one.
func (a *Allocator) freeGroup(n int) []memarch.RowAddr {
	per := uint64(a.geo.RowsPerSubarray)
	usable := per - uint64(a.tail)
	// The list is ascending, so each subarray's free rows form one run,
	// its usable rows first and any freed tail rows after them.
	for start := 0; start+n <= len(a.free); {
		sub := a.free[start] / per
		end, fit := start, 0
		for ; end < len(a.free) && a.free[end]/per == sub; end++ {
			if a.free[end]%per < usable {
				fit++
			}
		}
		if fit >= n {
			out := make([]memarch.RowAddr, n)
			for i, k := range a.free[start : start+n] {
				out[i] = a.geo.Decode(k)
			}
			a.free = slices.Delete(a.free, start, start+n)
			return out
		}
		start = end
	}
	return nil
}

// addFree puts key on the free list, keeping it ascending; a key already
// there is left as it is.
func (a *Allocator) addFree(key uint64) {
	if i, found := slices.BinarySearch(a.free, key); !found {
		a.free = slices.Insert(a.free, i, key)
	}
}

// Mark returns the allocation frontier, for a later Rollback.
func (a *Allocator) Mark() uint64 { return a.next }

// Rollback undoes allocations made since Mark returned start, given every
// row they handed out: rows below start came off the free list (freed
// rows always lie below the frontier) and go back on it, and the frontier
// rewinds to start, so the allocator hands out what it would have had
// those allocations never been made.
func (a *Allocator) Rollback(start uint64, rows []memarch.RowAddr) {
	for _, r := range rows {
		if key := a.geo.Encode(r); key < start {
			a.addFree(key)
		}
	}
	a.next = start
}

// Gen returns the layout generation, which every Free and Retire
// advances: a caller that computed something from rows the allocator had
// handed out (a batch builder's footprints) compares generations to learn
// whether a row may have been freed or retired since. Allocations do not
// advance it, because they move no row already handed out.
func (a *Allocator) Gen() uint64 { return a.gen }

// Free returns rows to the allocator. Retired rows stay out of circulation.
func (a *Allocator) Free(rows []memarch.RowAddr) {
	a.gen++
	for _, r := range rows {
		key := a.geo.Encode(r)
		if a.retired[key] {
			continue
		}
		a.addFree(key)
	}
}

// Retire permanently removes a row from circulation (wear-out: its cells no
// longer store what the write drivers deliver). A retired row is never
// handed out again, even if Free is later called on it.
func (a *Allocator) Retire(r memarch.RowAddr) {
	a.gen++
	key := a.geo.Encode(r)
	a.retired[key] = true
	if i, found := slices.BinarySearch(a.free, key); found {
		a.free = slices.Delete(a.free, i, i+1)
	}
}

// Remap allocates a fresh row and retires the worn-out row it replaces.
// With no row left it returns the error and retires nothing: the caller
// keeps the old row. AllocRows never hands out a row in use, so the fresh
// row is never old itself.
func (a *Allocator) Remap(old memarch.RowAddr) (memarch.RowAddr, error) {
	rows, err := a.AllocRows(1)
	if err != nil {
		return memarch.RowAddr{}, err
	}
	a.Retire(old)
	return rows[0], nil
}

// Reset restores the allocator to its NewAllocatorTail state: the frontier
// rewinds, free/retired sets empty and the generation returns to zero, so
// a pooled shard sandbox hands out exactly the row sequence a fresh
// allocator would.
func (a *Allocator) Reset() {
	a.free = a.free[:0]
	clear(a.retired)
	a.next = 0
	a.gen = 0
}

// AllocatedRows reports how many rows are currently live (retired rows
// still count — their capacity is lost, not reclaimed).
func (a *Allocator) AllocatedRows() int { return int(a.next) - len(a.free) }

// RetiredRows reports how many rows have been retired.
func (a *Allocator) RetiredRows() int { return len(a.retired) }

// Retired reports whether r has been retired. While nothing is, it
// returns without a map lookup, so a fault-free caller pays nothing.
func (a *Allocator) Retired(r memarch.RowAddr) bool {
	return len(a.retired) > 0 && a.retired[a.geo.Encode(r)]
}

// --- scheduling ---

// subarrayKey identifies one subarray.
type subarrayKey struct{ ch, rk, ba, sa int }

func keyOf(a memarch.RowAddr) subarrayKey {
	return subarrayKey{a.Channel, a.Rank, a.Bank, a.Subarray}
}

// GroupBySubarray partitions operand rows by their subarray, preserving
// first-appearance order of the groups. Grouping scans linearly instead
// of hashing: operand sets are bounded by the open-row cap and group
// counts are tiny, so the scan beats a map and allocates no index.
func GroupBySubarray(rows []memarch.RowAddr) [][]memarch.RowAddr {
	return appendGroups(nil, rows)
}

// appendGroups is GroupBySubarray onto a caller-owned groups buffer
// (emptied group slices are reused; see Scheduler.groupBySubarray).
func appendGroups(groups [][]memarch.RowAddr, rows []memarch.RowAddr) [][]memarch.RowAddr {
	for _, r := range rows {
		k := keyOf(r)
		found := -1
		for i := range groups {
			if keyOf(groups[i][0]) == k {
				found = i
				break
			}
		}
		if found < 0 {
			if len(groups) < cap(groups) {
				groups = groups[:len(groups)+1]
				groups[len(groups)-1] = groups[len(groups)-1][:0]
			} else {
				groups = append(groups, nil)
			}
			found = len(groups) - 1
		}
		groups[found] = append(groups[found], r)
	}
	return groups
}

// PlacementOf returns the workload placement of an operand set: intra when
// one subarray holds everything, inter-sub within a bank, inter-bank within
// a rank. Cross-rank sets return an error — the driver must split them.
func PlacementOf(rows []memarch.RowAddr) (workload.Placement, error) {
	switch {
	case memarch.SameSubarray(rows...):
		return workload.PlaceIntra, nil
	case memarch.SameBank(rows...):
		return workload.PlaceInterSub, nil
	case memarch.SameRank(rows...):
		return workload.PlaceInterBank, nil
	default:
		return 0, fmt.Errorf("pimrt: placing %d operand rows: %w", len(rows), pim.ErrCrossRank)
	}
}

// SpecForOR builds the workload OpSpec for a logical OR over operand rows,
// with the scheduler's subarray grouping attached. bits is the vector
// length.
func SpecForOR(rows []memarch.RowAddr, bits int) (workload.OpSpec, error) {
	if len(rows) < 2 {
		return workload.OpSpec{}, fmt.Errorf("pimrt: OR over %d rows", len(rows))
	}
	placement, err := PlacementOf(rows)
	if err != nil {
		return workload.OpSpec{}, err
	}
	spec := workload.OpSpec{
		Op:        sense.OpOR,
		Operands:  len(rows),
		Bits:      bits,
		Placement: placement,
	}
	if groups := GroupBySubarray(rows); len(groups) > 1 {
		spec.Groups = make([]int, len(groups))
		for i, g := range groups {
			spec.Groups[i] = len(g)
		}
	}
	return spec, nil
}

// Scheduler is the runtime's one way to execute a logical operation.
// Execute lowers the operation into hardware requests — a logical OR over
// arbitrarily many operand rows becomes per-subarray multi-row ORs at the
// controller's depth (chained through scratch rows) plus an inter combine;
// every other op is a single request — runs them on the controller, and
// returns the operation's cmdstream program with the cost folded from it.
// Write and Read move one row between the host and the memory under the
// same verification. Its own decisions (retries, rungs, retirements) count
// into Ctl's ledger, and so does everything Ctl's passes do (votes,
// read-back verifies, syndrome decodes); a caller that wants one
// operation's share reads the ledger's difference across it.
//
// A per-subarray OR partial lands in that subarray's ScratchRow, which
// the allocator must never hand out; the driver library reserves these at
// init (the paper's run-time "schedule opt"). A scratch row that wore out
// is retired like any other row, and from then on each partial it would
// hold lands in a row on loan from Alloc for the length of the OR.
//
// When every operand of an intra-subarray request heads a replica group
// in Ctl's memory (memarch.Memory.SetGroup), a verified request executes
// as a majority-voted activation over all copies — the proactive rung of
// the resilience ladder (replicate.go).
type Scheduler struct {
	Ctl *pim.Controller
	// Verify enables the verify-and-retry resilience ladder
	// (resilience.go); false schedules plainly, trusting the hardware.
	// The ladder leads with Ctl's in-array SECDED path exactly when Ctl
	// has a codec attached (pim.Controller.EnableECC), and with read-back
	// otherwise.
	Verify bool
	// Alloc, when set, retires a destination whose cells are damaged and
	// supplies its replacement (Allocator.Remap), and takes back the
	// replacements the scheduler used for internal partials. With none,
	// the ladder keeps a damaged row and fails loudly.
	Alloc *Allocator

	// res, partial, groups, partials, links and goldens are scheduling
	// scratch, reused across operations so a steady-state Execute, Write
	// or Read allocates nothing of its own: res is the result they hand
	// out, partial the target of a per-subarray OR partial, groups and
	// partials operand grouping, links the operand buffer of a chained
	// OR's links, and goldens the resilience oracle's reference buffers.
	// links has one buffer and goldens two per request nesting level,
	// which level indexes (see golden in resilience.go). voteRows and
	// voteSets hold a voted request's operand sets (votedSets), copySrc
	// and copyDst a replica refresh's operand and destination
	// (syncReplicas). A Scheduler is owned by one System and never called
	// reentrantly, so plain fields suffice.
	res      ScheduleResult
	partial  memarch.RowAddr
	groups   [][]memarch.RowAddr
	partials []memarch.RowAddr
	links    [][]memarch.RowAddr
	goldens  [][2][]uint64
	level    int
	voteRows []memarch.RowAddr
	voteSets [][]memarch.RowAddr
	copySrc  [1]memarch.RowAddr
	copyDst  memarch.RowAddr
}

// groupBySubarray is GroupBySubarray through the scheduler's reusable
// grouping scratch.
func (s *Scheduler) groupBySubarray(rows []memarch.RowAddr) [][]memarch.RowAddr {
	s.groups = appendGroups(s.groups[:0], rows)
	return s.groups
}

// ScheduleResult summarises one scheduled logical operation or host row
// transfer. The scheduler owns it: it stays valid only until the
// scheduler's next Execute, Write or Read, like pim.Result.Words. A holder
// that keeps the program longer copies it (cmdstream.Program.Append); the
// copy's command sequences stay valid until the controller's command
// arena is released (pim.Result.Commands).
type ScheduleResult struct {
	Requests int
	Cost     workload.Cost
	// Words is a Read's sensed controller words, valid only until the
	// controller's next execution (pim.Result.Words); Execute and Write
	// leave it nil. Copy them to keep them longer.
	Words []uint64

	// Program is the operation's lowered cmdstream program: everything it
	// put on the channel in execution order, including resilience
	// expansions (retries, depth splits, ECC reprograms and verification
	// passes). Requests and Cost are both derived from it by finalize —
	// the program is the single source of truth. With resilience off it
	// is exactly the plain controller command sequence; Program.Request
	// lowers it onto the channel scheduler.
	Program cmdstream.Program

	// FinalDst is where the result actually lives; it differs from the
	// requested destination only when that row was retired mid-operation.
	FinalDst memarch.RowAddr
}

// finalize derives the result's accounting — request count and
// accumulated Cost — from the lowered program. This is the only place in
// the runtime that computes them. The cost fold replays the program's
// annotations in emission order, so it is bit-identical to accumulating
// during execution.
func (res *ScheduleResult) finalize() {
	res.Requests = res.Program.Requests()
	res.Cost = res.Program.Cost()
}

// Execute runs op over the operand rows into dst — the runtime's one op
// entry point. A logical OR of any width is grouped by subarray and
// chained at the controller's depth (a one-row OR is a copy); every other
// op (AND/XOR/INV/READ) is a single request. Each request goes through
// the resilience ladder when it is enabled and is a plain controller call
// otherwise. The returned FinalDst differs from dst when the destination
// row was retired. The result is the scheduler's own and is overwritten
// by the next Execute.
func (s *Scheduler) Execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst memarch.RowAddr) (*ScheduleResult, error) {
	res := s.begin(dst)
	var err error
	switch {
	case op != sense.OpOR:
		_, err = s.request(op, srcs, bits, &res.FinalDst, nil, res)
	case len(srcs) == 0:
		err = errors.New("pimrt: OR of no rows")
	case len(srcs) == 1:
		// Degenerate copy: read + write through the controller.
		_, err = s.request(sense.OpRead, srcs, bits, &res.FinalDst, nil, res)
	default:
		err = s.or(srcs, bits, res)
	}
	if err != nil {
		return nil, err
	}
	res.finalize()
	return res, nil
}

// begin empties the scheduler's result for an operation into dst, keeping
// only its program buffer's capacity.
func (s *Scheduler) begin(dst memarch.RowAddr) *ScheduleResult {
	s.res.Program.Reset()
	s.res = ScheduleResult{Program: s.res.Program, FinalDst: dst}
	return &s.res
}

// or executes the logical OR of two or more operand rows into
// res.FinalDst.
func (s *Scheduler) or(rows []memarch.RowAddr, bits int, res *ScheduleResult) error {
	depth := s.Ctl.MaxORRows()
	groups := s.groupBySubarray(rows)
	if len(groups) == 1 {
		// Collapse the group inside its subarray, chaining at the depth.
		_, err := s.chainedOR(rows, bits, &res.FinalDst, nil, depth, res)
		return err
	}
	partials := s.partials[:0]
	var borrowed []memarch.RowAddr
	var err error
	for _, g := range groups {
		if len(g) == 1 {
			partials = append(partials, g[0])
			continue
		}
		s.partial = ScratchRow(s.Ctl.Memory().Geometry(), g[0])
		orig := s.partial
		if s.Alloc != nil && s.Alloc.Retired(s.partial) {
			// An earlier OR wore the scratch row out: put the partial in a
			// row on loan rather than fail on the worn row first. With no
			// row left, the ladder keeps the worn one, as for a target.
			if rows, aerr := s.Alloc.AllocRows(1); aerr == nil {
				s.partial = rows[0]
			}
		}
		_, err = s.chainedOR(g, bits, &s.partial, nil, depth, res)
		if s.partial != orig {
			// The partial lives in a row on loan from the allocator: the
			// scratch row was retired before this OR or wore out mid-chain.
			borrowed = append(borrowed, s.partial)
		}
		if err != nil {
			break
		}
		partials = append(partials, s.partial)
	}
	if err == nil {
		// Combine partials across subarrays/banks. The partials necessarily
		// live in distinct subarrays, so this is one inter request (chained
		// at the request cap when enormous).
		_, err = s.chainedOR(partials, bits, &res.FinalDst, nil, pim.InterORLimit, res)
	}
	s.partials = partials[:0]
	if len(borrowed) > 0 {
		// Only the allocator moves a partial off its scratch row; the loan
		// ends with the OR, whether or not it succeeded.
		s.Alloc.Free(borrowed)
	}
	return err
}

// chainedOR folds rows into *target with requests of at most depth
// operands and returns the last link's words. It is the scheduler's one
// way to split an OR: or chains at the controller's depth and at the
// inter cap, and the ladder's depth split re-runs a failing request
// through it at shallower depths. With acc nil the first link ORs only
// rows; every later link, and with acc non-nil every link, is headed by
// *target and restores it from the words before it, acc for the first.
// Every link goes through request, so with resilience enabled each one is
// verified before the next consumes the accumulator. Its verified words
// are golden buffers the scheduler owns, so they survive the next link's
// execution, and golden computes that link's own reference into the
// level's other buffer; with resilience off request hands back controller
// words that the next link overwrites, but restore is then never read.
// The links are assembled in the level's link buffer: a link's own depth
// split runs one level down while its operands are still live.
func (s *Scheduler) chainedOR(rows []memarch.RowAddr, bits int, target *memarch.RowAddr, acc []uint64, depth int, res *ScheduleResult) ([]uint64, error) {
	for len(s.links) <= s.level {
		s.links = append(s.links, nil)
	}
	level := s.level
	chained := acc != nil
	for done := 0; done < len(rows); {
		srcs := s.links[level][:0]
		if chained {
			srcs = append(srcs, *target)
		}
		take := min(len(rows)-done, depth-len(srcs))
		srcs = append(srcs, rows[done:done+take]...)
		s.links[level] = srcs
		words, err := s.request(sense.OpOR, srcs, bits, target, acc, res)
		if err != nil {
			return nil, err
		}
		acc, chained = words, true
		done += take
	}
	return acc, nil
}

// --- logical-ID mapping ---

// Mapper models the default pim_malloc placement policy for a homogeneous
// collection of bit-vectors (adjacency rows, index bitmaps): logical vector
// i occupies the i-th usable row of the sequential allocation order, with
// the per-subarray scratch row skipped. Applications use it to derive the
// operand grouping of a logical op without instantiating a memory.
type Mapper struct {
	geo    memarch.Geometry
	usable int // rows per subarray available to data
}

// NewMapper builds a mapper for the geometry (scratch rows reserved).
func NewMapper(geo memarch.Geometry) (Mapper, error) {
	if err := geo.Validate(); err != nil {
		return Mapper{}, err
	}
	return Mapper{geo: geo, usable: geo.RowsPerSubarray - 1}, nil
}

// RowOf returns the row address of logical vector id. Panics on a negative
// id or one past the memory's capacity — ids come from the mapper's own
// allocator, so either is a runtime bug.
func (m Mapper) RowOf(id int) memarch.RowAddr {
	if id < 0 {
		panic(fmt.Sprintf("pimrt: negative vector id %d", id))
	}
	sub := id / m.usable
	row := id % m.usable
	flat := uint64(sub)*uint64(m.geo.RowsPerSubarray) + uint64(row)
	if flat >= uint64(m.geo.TotalRows()) {
		panic(fmt.Sprintf("pimrt: vector id %d exceeds memory capacity", id))
	}
	return m.geo.Decode(flat)
}

// SpecForIDs builds the scheduler-grouped OR spec over logical vector IDs.
func (m Mapper) SpecForIDs(ids []int, bits int) (workload.OpSpec, error) {
	rows := make([]memarch.RowAddr, len(ids))
	for i, id := range ids {
		rows[i] = m.RowOf(id)
	}
	return SpecForOR(rows, bits)
}
