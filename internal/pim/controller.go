// Package pim implements the Pinatubo memory controller — the paper's core
// contribution. Given a bulk bitwise operation over operand rows, the
// controller classifies it by operand placement (intra-subarray,
// inter-subarray, or inter-bank, Section 4.1) and lowers it to a priced
// DDR command sequence (mode-register setup, LWL-latch multi-row
// activation, sensing steps, in-place writeback) — a pure function of the
// op, its addresses and the geometry. Executing it then replays the
// lowering's data effects against the memory model: mode register,
// sensing (with any injected faults), result buffers, counters and the
// destination row.
package pim

import (
	"errors"
	"fmt"

	"pinatubo/internal/analog"
	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/ddr"
	"pinatubo/internal/dram"
	"pinatubo/internal/ecc"
	"pinatubo/internal/energy"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// Class is the placement class of an operation.
type Class int

const (
	// ClassIntraSub: all operand rows share a subarray; the modified SA
	// computes the result in one multi-row activation.
	ClassIntraSub Class = iota
	// ClassInterSub: operands share a bank but not a subarray; the add-on
	// logic at the global row buffer combines serially-read rows.
	ClassInterSub
	// ClassInterBank: operands share a rank but not a bank; the add-on
	// logic at the I/O buffer combines them.
	ClassInterBank
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassIntraSub:
		return "intra-subarray"
	case ClassInterSub:
		return "inter-subarray"
	case ClassInterBank:
		return "inter-bank"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ErrCrossRank is returned for operand sets spanning ranks or channels:
// Pinatubo does not operate across chips — the paper relies on the
// PIM-aware memory mapping to avoid such placements.
var ErrCrossRank = errors.New("pim: operands span ranks or channels; not supported (remap or fall back to the CPU)")

// ErrSharedRow is returned when two operands name the same physical row.
var ErrSharedRow = errors.New("pim: operands share a physical row; Pinatubo requires distinct rows")

// InterORLimit caps the operand count of a single inter-subarray/bank OR
// request; longer chains are split by the runtime scheduler.
const InterORLimit = 256

// Result describes one executed operation.
type Result struct {
	Op    sense.Op
	Class Class
	Rows  int // operand row count
	Bits  int // vector length in bits
	// Seconds is the command-sequence latency on one channel.
	Seconds float64
	// Energy is the per-component energy of the operation.
	Energy energy.Meter
	// Commands is the DDR command sequence the controller issued. It
	// stays valid only until the controller's command arena is released
	// (ReleaseCommands, which a System calls as each public operation
	// begins): a lowering the program cache does not keep is carved from
	// that arena, and later ones reuse its space. A holder that keeps the
	// commands longer copies them, as cmdstream.Program.Request does.
	Commands []ddr.Cmd
	// Words is the result vector (bitvec.WordsFor(Bits) words). It stays
	// valid only until the controller's next execution: every execution
	// (and the OpRead behind ReadRow) computes into one controller-owned
	// buffer that the next overwrites, a voted execution's majority
	// included. A holder that keeps the words across a later execution
	// must copy them or own its buffer — as the scheduler's golden and
	// restore checkpoints, and ScheduleResult.Words, do.
	Words []uint64
}

// Controller drives one PIM-extended main memory. The technology-specific
// part — how a co-located operand set is lowered and computed inside the
// array — lives behind the backend seam; the controller owns placement
// classification, the digital inter-subarray/bank datapath, write-back
// routing, caching, fault injection, counters and ECC, which are
// technology-generic.
type Controller struct {
	mem *memarch.Memory
	be  backend.Backend
	bus ddr.BusParams
	mrs ddr.ModeRegisters
	// led is the ledger every layer stacked on this controller counts
	// into: its own tally, the scheduler, the injector and the host paths.
	led ledger.Ledger
	// inj, when attached, corrupts sensing and cell writes — see
	// internal/fault. nil means the ideal-hardware model.
	inj *fault.Injector
	// codec models the in-array SECDED spare columns — see ecc.go; nil
	// means no ECC. The check words they store are part of each row's
	// record in the memory.
	codec *ecc.Codec

	// cache memoises lowerings — placement class, command sequence,
	// latency, energy, MR4, counter deltas — keyed by the operation shape
	// (see execute). A hit and a miss run the same replay, so the cache
	// cannot change a result, under faults and ECC as on ideal hardware.
	// nil turns it off. It may be shared with other controllers of the
	// same configuration (a System's window sandboxes use the System's);
	// keyBuf is this controller's own.
	cache  *cmdstream.Cache
	keyBuf cmdstream.KeyBuffer
	// rowsScratch is reused for the per-execute operand row-slice header
	// list, so steady-state executions of a fixed arity allocate nothing
	// for it.
	rowsScratch [][]uint64
	// senseBufs holds per-pass sensing buffers — the replica passes of a
	// voted execution, or the one row the digital path senses each
	// operand into under an injector — reused so a steady-state request
	// allocates nothing row-sized for them. It keeps the largest set a
	// request has needed: one row per replica of a vote.
	senseBufs [][]uint64
	// words is the result buffer behind Result.Words, reused so a
	// steady-state execution allocates nothing row-sized (see Result.Words
	// for the lifetime this implies).
	words []uint64
	// eccData / eccCheck are the ECC verification path's decode scratch:
	// the sensed data and check words live only for the decode, so the
	// steady-state verify-every-op loop reuses them.
	eccData  []uint64
	eccCheck []uint64
	// rowKeys, voteRows, intra, lowerEn and proto are the lowering's
	// working state: the encoded operand addresses Classify sorts to find
	// a shared row, every row of a voted request (votedRows), the request
	// handed to the backend, the meter it charges and the protocol
	// checker. readSrc is ReadRow's one-operand list. Reusing them, and
	// carving the command slice from the arena, keeps a warm uncached
	// lowering free of allocations.
	rowKeys  []uint64
	voteRows []memarch.RowAddr
	intra    backend.IntraRequest
	lowerEn  energy.Meter
	proto    ddr.BankState
	readSrc  [1]memarch.RowAddr
	// cmds is the command arena uncached lowerings are carved from
	// (carve). cmdsOp counts the commands carved since the last
	// ReleaseCommands, and cmdsSize is the largest such count: the size
	// of the block the arena starts when its current one is full. All
	// three start empty, so a controller nobody releases allocates each
	// uncached lowering's commands at their final length, as if there
	// were no arena.
	cmds     []ddr.Cmd
	cmdsOp   int
	cmdsSize int
}

// carve returns an empty command slice of capacity exactly n from the
// arena. When the current block cannot hold n more commands, a fresh one
// is started, sized to the larger of n and the largest operation the
// arena has served; the full block stays alive only while commands carved
// from it are referenced.
func (c *Controller) carve(n int) []ddr.Cmd {
	used := len(c.cmds)
	if cap(c.cmds)-used < n {
		c.cmds = make([]ddr.Cmd, 0, max(n, c.cmdsSize))
		used = 0
	}
	c.cmds = c.cmds[:used+n]
	c.cmdsOp += n
	return c.cmds[used : used : used+n]
}

// ReleaseCommands ends the lifetime of every command slice carved since
// the last release (Result.Commands), so the arena reuses its block. The
// block is sized to the largest operation served so far, so once every
// operation between two releases fits, lowering allocates nothing.
func (c *Controller) ReleaseCommands() {
	c.cmdsSize = max(c.cmdsSize, c.cmdsOp)
	c.cmdsOp = 0
	if cap(c.cmds) < c.cmdsSize {
		c.cmds = nil // the next carve starts a block of cmdsSize
		return
	}
	c.cmds = c.cmds[:0]
}

// scratchWords returns buf resized to exactly n words (growing its backing
// storage if needed), for scratch that is fully overwritten before use.
func scratchWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// senseScratch returns r sensing buffers of exactly w words each, backed
// by reused storage.
func (c *Controller) senseScratch(r, w int) [][]uint64 {
	if cap(c.senseBufs) < r {
		grown := make([][]uint64, r)
		copy(grown, c.senseBufs[:cap(c.senseBufs)])
		c.senseBufs = grown
	}
	outs := c.senseBufs[:r]
	for i := range outs {
		if cap(outs[i]) < w {
			outs[i] = make([]uint64, w)
		}
		outs[i] = outs[i][:w]
	}
	c.senseBufs = outs
	return outs
}

// operandRows returns the first w words of every operand row, as views of
// memory through the reused header list.
func (c *Controller) operandRows(srcs []memarch.RowAddr, w int) [][]uint64 {
	if cap(c.rowsScratch) < len(srcs) {
		c.rowsScratch = make([][]uint64, len(srcs))
	}
	rows := c.rowsScratch[:len(srcs)]
	for i, s := range srcs {
		rows[i] = c.mem.PeekRow(s)[:w]
	}
	return rows
}

// NewController builds a controller over mem, selecting the compute
// backend from the memory's technology: the modified-SA backend for the
// resistive NVMs, the triple-row-activation backend for DRAM. checkBits
// configures the per-op analog cross-check sample of the SA model (0
// disables; ignored by the DRAM backend, whose compute is digital).
func NewController(mem *memarch.Memory, checkBits int) (*Controller, error) {
	be, err := defaultBackend(mem, checkBits)
	if err != nil {
		return nil, err
	}
	return &Controller{mem: mem, be: be, bus: ddr.DefaultBus()}, nil
}

// defaultBackend maps a technology to its compute backend.
func defaultBackend(mem *memarch.Memory, checkBits int) (backend.Backend, error) {
	p := mem.Tech()
	switch p.Tech {
	case nvm.PCM, nvm.STTMRAM, nvm.ReRAM:
		return backend.NewSenseAmp(p, analog.DefaultSenseConfig(), checkBits)
	case nvm.DRAM:
		return dram.New(p, mem.Geometry())
	default:
		return nil, fmt.Errorf("pim: no compute backend for technology %s", p.Tech)
	}
}

// Backend returns the controller's compute backend.
func (c *Controller) Backend() backend.Backend { return c.be }

// AttachInjector wires a fault injector into the controller's sensing and
// cell-write paths. Passing nil restores the ideal-hardware model. A
// backend whose sensing the resistive fault model does not describe
// (Caps().FaultInjection false, the DRAM backend) refuses an injector.
func (c *Controller) AttachInjector(in *fault.Injector) error {
	if in != nil && !c.be.Caps().FaultInjection {
		return fmt.Errorf("pim: fault injection models resistive sensing margins and does not apply to the %s backend",
			c.be.Params().Tech)
	}
	c.inj = in
	return nil
}

// SetProgramCache serves lowerings from cache, which nil turns off. A
// cache may be shared by controllers of one configuration, on any
// goroutines: a lowering is a pure function of the operation shape and
// the configuration, never of memory contents, faults or the controller
// that built it.
func (c *Controller) SetProgramCache(cache *cmdstream.Cache) { c.cache = cache }

// ProgramCache returns the program cache the controller serves from, nil
// when it is off.
func (c *Controller) ProgramCache() *cmdstream.Cache { return c.cache }

// CacheStats snapshots the program cache's traffic counters, which count
// every controller that shares the cache.
func (c *Controller) CacheStats() cmdstream.CacheStats {
	if c.cache == nil {
		return cmdstream.CacheStats{}
	}
	return c.cache.Stats()
}

// Injector returns the attached fault injector (nil when none).
func (c *Controller) Injector() *fault.Injector { return c.inj }

// Ledger returns the controller's counter ledger. The scheduler, the
// injector and the owning System count into it too.
func (c *Controller) Ledger() *ledger.Ledger { return &c.led }

// OpsCounter returns the ledger counter of completed executions in class.
func OpsCounter(class Class) ledger.Counter { return ledger.HwIntraSub + ledger.Counter(class) }

// ResetForReuse restores the controller to its just-built state so a
// pooled shard sandbox is indistinguishable from a fresh one: mode
// registers and the SA model's sampling stream return to their New
// values (the check words reset with the memory's row records). The
// program cache is left alone: it is the System's, shared with the live
// controller, and its lowerings are pure functions of operand addresses
// and geometry, so a reused sandbox replaying a same-shaped window hits
// instead of re-lowering. The attached injector and codec stay attached,
// and the ledger is left alone: the owning System resets both itself.
func (c *Controller) ResetForReuse() {
	c.mrs = ddr.ModeRegisters{}
	c.be.Reset()
}

// countersFor derives the hardware-counter deltas of a command sequence.
func countersFor(cmds []ddr.Cmd) (act, senseSteps, wb, bus int64) {
	for _, cmd := range cmds {
		switch cmd.Kind {
		case ddr.CmdAct, ddr.CmdActLatch:
			act++
		case ddr.CmdActTRA:
			// A triple-row activation fires three wordlines in one command.
			act += 3
		case ddr.CmdSense:
			senseSteps++
		case ddr.CmdWBack, ddr.CmdWr:
			wb++
		default:
			// MRS, precharge, moves and reads don't feed these counters
			// (reads are tallied as BusBits below).
		}
		if cmd.Kind == ddr.CmdRd || cmd.Kind == ddr.CmdWr {
			bus += int64(cmd.Bits)
		}
	}
	return act, senseSteps, wb, bus
}

// tally folds one executed program's counter deltas into the ledger.
func (c *Controller) tally(p *progEntry) {
	c.led.Count[OpsCounter(p.class)]++
	c.led.Count[ledger.Activations] += p.activations
	c.led.Count[ledger.SenseSteps] += p.senseSteps
	c.led.Count[ledger.Writebacks] += p.writebacks
	c.led.Count[ledger.BusBits] += p.busBits
}

// Memory returns the controlled memory.
func (c *Controller) Memory() *memarch.Memory { return c.mem }

// Bus returns the DDR bus parameters the controller prices transfers with,
// so trace consumers (the channel scheduler) can cost commands identically.
func (c *Controller) Bus() ddr.BusParams { return c.bus }

// MaxORRows returns the one-step OR operand limit of the technology
// (sensing margin and architectural cap combined).
func (c *Controller) MaxORRows() int { return c.be.Caps().MaxORRows }

// ModeRegister returns the current value of the PIM configuration register.
// Panics only if the built-in PIMRegister index is rejected — a constants
// bug, never a runtime condition.
func (c *Controller) ModeRegister() ddr.MR4 {
	v, err := c.mrs.Read(ddr.PIMRegister)
	if err != nil {
		panic(err) // PIMRegister is a valid constant index
	}
	return ddr.MR4(v)
}

// Classify determines the placement class of an operand set.
func (c *Controller) Classify(srcs []memarch.RowAddr) (Class, error) {
	if len(srcs) == 0 {
		return 0, errors.New("pim: no operand rows")
	}
	geo := c.mem.Geometry()
	for _, a := range srcs {
		if !geo.Valid(a) {
			return 0, fmt.Errorf("pim: operand address %v outside geometry", a)
		}
	}
	distinct, keys := memarch.DistinctRowsBuf(geo, c.rowKeys, srcs)
	c.rowKeys = keys
	if !distinct {
		return 0, fmt.Errorf("pim: classifying %d operand rows: %w", len(srcs), ErrSharedRow)
	}
	switch {
	case memarch.SameSubarray(srcs...):
		return ClassIntraSub, nil
	case memarch.SameBank(srcs...):
		return ClassInterSub, nil
	case memarch.SameRank(srcs...):
		return ClassInterBank, nil
	default:
		return 0, fmt.Errorf("pim: classifying %d operand rows: %w", len(srcs), ErrCrossRank)
	}
}

// validateOperandCount applies the per-class operand rules.
func (c *Controller) validateOperandCount(op sense.Op, class Class, n int) error {
	if class == ClassIntraSub {
		return c.be.ValidateOperands(op, n)
	}
	// Inter-subarray/bank ops run through digital logic: AND/XOR stay
	// 2-operand, INV/READ 1-operand, OR chains up to the request cap.
	switch op {
	case sense.OpRead, sense.OpINV:
		if n != 1 {
			return fmt.Errorf("pim: %v requires exactly 1 operand, got %d", op, n)
		}
	case sense.OpAND, sense.OpXOR:
		if n != 2 {
			return fmt.Errorf("pim: %v requires exactly 2 operands, got %d", op, n)
		}
	case sense.OpOR:
		if n < 2 || n > InterORLimit {
			return fmt.Errorf("pim: %v supports 2..%d operands, got %d", op, InterORLimit, n)
		}
	default:
		return fmt.Errorf("pim: unknown op %d", int(op))
	}
	return nil
}

// Execute runs op over the operand rows on their first `bits` bits. If dst
// is non-nil the result is written to that row (in place when possible);
// otherwise the result is burst onto the DDR bus for the host. The result
// words are returned either way so callers can verify functionally. The
// Result is the caller's value; its Words and Commands are views with the
// lifetimes Result states.
func (c *Controller) Execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr) (Result, error) {
	return c.execute(op, srcs, nil, bits, dst, false)
}

// ExecuteDigital forces the serial digital datapath (global row buffer /
// I/O buffer) even when the operands share a subarray. The digital path
// reads every operand with single-row sensing — the widest margin the chip
// has — so the resilience layer uses it when multi-row analog sensing keeps
// failing: slower, never deep-margin-limited.
func (c *Controller) ExecuteDigital(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr) (Result, error) {
	return c.execute(op, srcs, nil, bits, dst, true)
}

// execute runs one operation: it looks up the operation's lowering in the
// program cache or lowers it afresh, then replays the lowering's data
// effects. The replay is the same on a hit and on a miss. reps holds the
// replica operand sets of a voted request (ExecuteVoted) and is nil on
// the plain path; a voted lowering is never keyed, so the cache serves
// plain requests only.
func (c *Controller) execute(op sense.Op, srcs []memarch.RowAddr, reps [][]memarch.RowAddr, bits int, dst *memarch.RowAddr, digital bool) (Result, error) {
	keyed := reps == nil && c.opKey(op, srcs, bits, dst, digital)
	p := c.lookup(keyed)
	if p == nil {
		fresh, err := c.lower(op, srcs, reps, bits, dst, digital, keyed)
		if err != nil {
			return Result{}, err
		}
		c.remember(keyed, fresh)
		p = &fresh
	}
	return c.replay(p, op, srcs, reps, bits, dst)
}

// progEntry is one lowering: everything an execution derives from the
// operation shape alone. An uncached lowering's command slice is carved
// from the controller's arena; a cached entry's is a slice of its own,
// shared by every hit and by the miss that built it — a view that no
// consumer mutates (Result.Instr and Program.Request only read it). Words
// are never part of a lowering: they depend on memory contents and are
// recomputed by every replay.
type progEntry struct {
	class    Class
	seconds  float64
	energy   energy.Meter
	commands []ddr.Cmd
	// mr4 is the PIM mode-register value the lowering programs; the
	// replay writes it (host writes leave MR4 alone).
	mr4 ddr.MR4

	// Hardware-counter deltas of the command sequence, precomputed so the
	// replay tallies without rescanning the commands.
	activations int64
	senseSteps  int64
	writebacks  int64
	busBits     int64
}

// newProgEntry builds the lowering record of a priced command sequence.
func newProgEntry(class Class, seconds float64, en energy.Meter, cmds []ddr.Cmd, mr4 ddr.MR4) progEntry {
	p := progEntry{class: class, seconds: seconds, energy: en, commands: cmds, mr4: mr4}
	p.activations, p.senseSteps, p.writebacks, p.busBits = countersFor(cmds)
	return p
}

// opKey builds an operation's program-cache key in keyBuf and reports
// whether the cache may serve it. Addresses are bounds-checked first:
// Encode is only injective inside the geometry, so an out-of-bounds
// operand must reach lower's validation errors rather than alias a cached
// valid address.
func (c *Controller) opKey(op sense.Op, srcs []memarch.RowAddr, bits int, dst *memarch.RowAddr, digital bool) bool {
	if c.cache == nil {
		return false
	}
	geo := c.mem.Geometry()
	k := &c.keyBuf
	k.Reset()
	k.Byte(byte(op))
	var flags byte
	if digital {
		flags |= 1
	}
	if dst != nil {
		flags |= 2
	}
	k.Byte(flags)
	k.Int(bits)
	if dst != nil {
		if !geo.Valid(*dst) {
			return false
		}
		k.Uint64(geo.Encode(*dst))
	}
	k.Int(len(srcs))
	for _, s := range srcs {
		if !geo.Valid(s) {
			return false
		}
		k.Uint64(geo.Encode(s))
	}
	return true
}

// lookup returns the lowering cached under the key in keyBuf, or nil.
// Without a key (keyed false) it is a miss the cache does not count.
func (c *Controller) lookup(keyed bool) *progEntry {
	if !keyed {
		return nil
	}
	e, ok := c.cache.Lookup(c.keyBuf.Bytes())
	if !ok {
		return nil
	}
	return e.(*progEntry)
}

// remember caches a fresh lowering under the key in keyBuf. The cache gets
// its own copy of the entry, so an uncached execution allocates none. A
// lowering made to be kept (lower's keep) holds a command slice of its
// own, never an arena carve: an entry outlives every release.
func (c *Controller) remember(keyed bool, p progEntry) {
	if keyed {
		ent := p
		c.cache.Store(c.keyBuf.Bytes(), &ent)
	}
}

// lower validates one operation and builds its priced command sequence: a
// pure function of the op, its addresses (srcs and any replica sets reps),
// the bit count, the digital flag and the geometry. It reads no memory,
// draws no fault and leaves MR4 alone. A voted request's rows, every set's
// together, must be distinct and share one subarray; each set lowers as
// its own multi-row activation, and the vote gate in the subarray's
// add-on logic folds once per replica beyond the first. keep says the
// program cache will keep the lowering, whose commands then get a slice of
// their own instead of an arena carve (newCmds). Panics if the sequence it
// built violates the DDR protocol — a controller bug, never a caller
// error.
func (c *Controller) lower(op sense.Op, srcs []memarch.RowAddr, reps [][]memarch.RowAddr, bits int, dst *memarch.RowAddr, digital, keep bool) (progEntry, error) {
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return progEntry{}, fmt.Errorf("pim: bits=%d outside 1..%d (row length)", bits, geo.RowBits())
	}
	rows := srcs
	if reps != nil {
		var err error
		if rows, err = c.votedRows(srcs, reps); err != nil {
			return progEntry{}, err
		}
	}
	class, err := c.Classify(rows)
	if err != nil {
		return progEntry{}, err
	}
	if digital && class == ClassIntraSub {
		class = ClassInterSub
	}
	if reps != nil && class != ClassIntraSub {
		return progEntry{}, fmt.Errorf("pim: voted execution requires intra-subarray placement, got %s", class)
	}
	if err := c.validateOperandCount(op, class, len(srcs)); err != nil {
		return progEntry{}, err
	}
	if dst != nil {
		if !geo.Valid(*dst) {
			return progEntry{}, fmt.Errorf("pim: destination %v outside geometry", *dst)
		}
		// Classify proved that the sources share one rank.
		if !memarch.SameRank(*dst, srcs[0]) {
			return progEntry{}, ErrCrossRank
		}
	}
	// MR4 configures the DIMM-side SA reference / datapath selector.
	mr4, err := ddr.EncodeMR4(op, len(srcs))
	if err != nil {
		return progEntry{}, err
	}

	var cmds []ddr.Cmd
	if class == ClassIntraSub {
		cmds, err = c.lowerIntra(op, srcs, reps, bits, dst, keep)
		if err != nil {
			return progEntry{}, err
		}
		if reps != nil {
			c.lowerEn.Add(energy.Logic, float64(len(reps))*float64(bits)*c.mem.Tech().Energy.LogicPerBit)
		}
	} else {
		body := len(srcs) * (3 + backend.SenseGroups(geo, bits)) // see lowerInter
		cmds = c.beginLowering(class, srcs[0], dst, body, keep)
		cmds = c.lowerInter(op, srcs, bits, class == ClassInterBank, cmds, &c.lowerEn)
	}
	return c.closeAndPrice(class, srcs[0], bits, dst, cmds, c.lowerEn, mr4), nil
}

// beginLowering zeroes the lowering's energy meter and starts a sequence
// with the MR4 write, in a slice (newCmds) at the length it will have once
// body more commands, the write-back routing from locus to dst (a burst to
// the host, or the buffer moves and the write-back) and the closing
// precharge follow.
func (c *Controller) beginLowering(class Class, locus memarch.RowAddr, dst *memarch.RowAddr, body int, keep bool) []ddr.Cmd {
	c.lowerEn = energy.Meter{}
	n := body + 3 // the MR4 write, the burst or write-back, the precharge
	if dst != nil {
		n += writebackMoves(class, locus, *dst)
	}
	return append(c.newCmds(n, keep), ddr.Cmd{Kind: ddr.CmdMRS})
}

// newCmds returns an empty command slice of capacity n for a lowering: a
// slice of its own when the program cache will keep the lowering (keep),
// because an entry outlives every release of the arena, and a carve from
// the arena otherwise.
func (c *Controller) newCmds(n int, keep bool) []ddr.Cmd {
	if keep {
		return make([]ddr.Cmd, 0, n)
	}
	return c.carve(n)
}

// lowerIntra starts a sequence (beginLowering) and appends the backend's
// lowering of each co-located operand set to it — srcs, then each replica
// set of a voted request. The backend's LWL reset closes the previous
// set's rows and re-arms the latches, so the protocol checker sees one
// well-formed group per set. The request the backend reads is
// controller-owned, so handing it over allocates nothing.
func (c *Controller) lowerIntra(op sense.Op, srcs []memarch.RowAddr, reps [][]memarch.RowAddr, bits int, dst *memarch.RowAddr, keep bool) ([]ddr.Cmd, error) {
	c.intra = backend.IntraRequest{Op: op, Srcs: srcs, Bits: bits, Geo: c.mem.Geometry(), Energy: &c.lowerEn}
	cmds := c.beginLowering(ClassIntraSub, srcs[0], dst, (1+len(reps))*c.be.IntraLen(&c.intra), keep)
	cmds, err := c.be.LowerIntra(&c.intra, cmds)
	for i := 0; err == nil && i < len(reps); i++ {
		c.intra.Srcs = reps[i]
		cmds, err = c.be.LowerIntra(&c.intra, cmds)
	}
	if err != nil {
		return nil, err
	}
	return cmds, nil
}

// closeAndPrice finishes a lowered sequence whose result sits at locus:
// it appends the write-back routing and the closing precharge —
// on the destination's row, or the computing subarray's when the result
// streamed to the host, so it lands on the bank the row occupies in the
// channel schedule — then protocol-checks and prices the whole sequence.
// Panics on a protocol violation: a controller bug, never a caller error.
func (c *Controller) closeAndPrice(class Class, locus memarch.RowAddr, bits int, dst *memarch.RowAddr, cmds []ddr.Cmd, en energy.Meter, mr4 ddr.MR4) progEntry {
	cmds = c.lowerWriteback(locus, bits, dst, class, cmds, &en)
	if dst != nil {
		locus = *dst
	}
	cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdPre, Addr: locus})
	if err := c.proto.Validate(cmds); err != nil {
		op, n := mr4.Decode()
		panic(fmt.Sprintf("pim: invalid command sequence for %v over %d rows (%v): %v", op, n, class, err))
	}
	return newProgEntry(class, ddr.Duration(cmds, c.mem.Tech().Timing, c.bus), en, cmds, mr4)
}

// replay applies one lowering's data effects in the order the hardware
// produces them: MR4 is programmed and the operand rows sensed — on the
// intra-subarray path one multi-row activation (senseIntra), or one per
// operand set of a voted request, majority-voted (senseVoted); on the
// digital path one single-row read per operand, flipped under an injector
// (senseDigital) and folded by the add-on logic into the global row buffer
// or the I/O buffer. The counters then tally and dst is programmed; a
// voted request that completes counts its vote and the bits it overruled.
// The result lands in the controller's result buffer (Result.Words).
func (c *Controller) replay(p *progEntry, op sense.Op, srcs []memarch.RowAddr, reps [][]memarch.RowAddr, bits int, dst *memarch.RowAddr) (Result, error) {
	if err := c.mrs.Write(ddr.PIMRegister, uint16(p.mr4)); err != nil {
		return Result{}, err
	}
	w := bitvec.WordsFor(bits)
	c.words = scratchWords(c.words, w)
	out := c.words
	outvoted := 0
	if reps != nil {
		var err error
		if outvoted, err = c.senseVoted(out, op, srcs, reps, bits); err != nil {
			return Result{}, err
		}
	} else if rows := c.operandRows(srcs, w); p.class == ClassIntraSub {
		if err := c.senseIntra(out, op, rows, bits); err != nil {
			return Result{}, err
		}
	} else {
		if c.inj != nil {
			c.senseDigital(out, op, rows, bits)
		} else {
			sense.Combine(out, op, rows)
		}
		a := srcs[0]
		buf := c.mem.GlobalBuffer(a.Channel, a.Rank, a.Bank)
		if p.class == ClassInterBank {
			buf = c.mem.IOBuffer(a.Channel, a.Rank)
		}
		copy(buf[:w], out)
	}
	c.tally(p)
	if dst != nil {
		if err := c.store(*dst, out); err != nil {
			return Result{}, err
		}
	}
	if reps != nil {
		c.led.Count[ledger.Votes]++
		c.led.Count[ledger.BitsOutvoted] += int64(outvoted)
	}
	return Result{Op: op, Class: p.class, Rows: len(srcs), Bits: bits, Seconds: p.seconds,
		Energy: p.energy, Commands: p.commands, Words: out}, nil
}

// senseIntra resolves one multi-row activation of the operand rows into
// out: the injector's transient activation-fault draw (a latch lost a row
// address before sensing began, so nothing changed and the request may
// simply be reissued), the backend's functional compute, then the sense
// flips at the activation's margin.
func (c *Controller) senseIntra(out []uint64, op sense.Op, rows [][]uint64, bits int) error {
	n := len(rows)
	if c.inj != nil && c.inj.ActivationFault(n) {
		return fmt.Errorf("pim: activating %d rows: %w", n, backend.ErrActivationFault)
	}
	if err := c.be.ComputeInto(out, op, rows); err != nil {
		return err
	}
	if c.inj != nil {
		c.inj.FlipSensed(op, n, bits, out)
	}
	return nil
}

// senseDigital is the digital path under an injector. Each operand is
// sensed with an ordinary single-row read, flipped at the read margin
// (flips are possible but rare), and folded into out as it arrives, so
// one sensing row serves any operand count. FlipSensed's draws depend
// only on bits, never on the words, so they are the draws a fold after
// the last read would see.
func (c *Controller) senseDigital(out []uint64, op sense.Op, rows [][]uint64, bits int) {
	copy(out, rows[0])
	c.inj.FlipSensed(sense.OpRead, 1, bits, out)
	if len(rows) == 1 {
		sense.Combine(out, op, [][]uint64{out}) // READ keeps, INV inverts
		return
	}
	read := c.senseScratch(1, len(out))[0]
	for _, r := range rows[1:] {
		copy(read, r)
		c.inj.FlipSensed(sense.OpRead, 1, bits, read)
		sense.Combine(out, op, [][]uint64{out, read})
	}
}

// store programs a row, routing the write through the wear model: the
// injector applies the program to the row's wear record, and worn rows
// keep their stuck-at bits regardless of what the write drivers deliver.
// A row that stores one of R copies of a logical row (its replica group
// holds R rows) accrues 1/R of a wear event per program.
func (c *Controller) store(addr memarch.RowAddr, words []uint64) error {
	if err := c.mem.WriteRow(addr, words); err != nil {
		return err
	}
	if c.inj != nil {
		w := c.mem.Wear(addr)
		if c.inj.RecordWriteShared(c.mem.Geometry().Encode(addr), &w, c.mem.GroupSize(addr)) {
			c.mem.SetWear(addr, w)
		}
		if len(w.Stuck) > 0 {
			// Stuck cells can sit anywhere in the row, beyond the words
			// just written, so they are forced through the full-row
			// mutator.
			c.inj.CorruptStoredOffset(w.Stuck, c.mem.MutableRow(addr), 0)
		}
	}
	return nil
}

// lowerInter appends the serial global-buffer sequence (inter-subarray
// when interBank is false, inter-bank when true): each operand is read
// with single-row sensing and moved into the accumulation buffer, where
// the add-on digital logic folds it in.
func (c *Controller) lowerInter(op sense.Op, srcs []memarch.RowAddr, bits int, interBank bool, cmds []ddr.Cmd, en *energy.Meter) []ddr.Cmd {
	e := c.mem.Tech().Energy
	groups := backend.SenseGroups(c.mem.Geometry(), bits)
	moveKind := ddr.CmdGDLMove
	moveEnergy := e.GDLPerBit
	moveComp := energy.GDL
	if interBank {
		moveKind = ddr.CmdIOMove
		moveEnergy = e.IOBusPerBit
		moveComp = energy.IOBus
	}
	fbits := float64(bits)
	for i, s := range srcs {
		// Read the operand row: activate + normal sensing per group.
		cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdAct, Addr: s})
		for g := 0; g < groups; g++ {
			cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdSense, Addr: s})
		}
		cmds = append(cmds, ddr.Cmd{Kind: moveKind, Addr: s, Bits: bits})
		// Close the operand's row before the next serial read (the data is
		// safe in the accumulation buffer).
		cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdPre, Addr: s})
		en.Add(energy.CellArray, fbits*e.ActPerBit)
		en.Add(energy.LWLDriver, e.LWLPerAct)
		en.Add(energy.SenseAmp, fbits*e.SensePerBit)
		en.Add(moveComp, fbits*moveEnergy)
		en.Add(energy.Buffer, fbits*e.BufferPerBit)
		if i > 0 {
			// Add-on digital logic combines the streamed row into the buffer.
			en.Add(energy.Logic, fbits*e.LogicPerBit)
		}
	}
	if op == sense.OpINV {
		en.Add(energy.Logic, fbits*e.LogicPerBit)
	}
	return cmds
}

// writebackMoves returns how many buffer moves carry a result at locus to
// dst's write drivers: none for an in-place update, one GDL move within a
// bank, and GDL, I/O and GDL moves across banks.
func writebackMoves(class Class, locus, dst memarch.RowAddr) int {
	switch {
	case class == ClassIntraSub && memarch.SameSubarray(locus, dst):
		return 0
	case memarch.SameBank(locus, dst):
		return 1
	default:
		return 3
	}
}

// lowerWriteback appends the routing of the result to dst (or to the host
// when dst is nil) and charges its energy. locus is where the result
// currently sits: the computing subarray's SAs (intra) or a buffer.
func (c *Controller) lowerWriteback(locus memarch.RowAddr, bits int, dst *memarch.RowAddr, class Class, cmds []ddr.Cmd, en *energy.Meter) []ddr.Cmd {
	e := c.mem.Tech().Energy
	fbits := float64(bits)
	if dst == nil {
		// Burst to the host over the DDR bus.
		en.Add(energy.IOBus, fbits*e.IOBusPerBit)
		return append(cmds, ddr.Cmd{Kind: ddr.CmdRd, Addr: locus, Bits: bits})
	}
	switch writebackMoves(class, locus, *dst) {
	case 0:
		// Pure in-place update: SA output feeds the WDs directly.
	case 1:
		// Move over the bank's GDLs to the destination subarray's WDs.
		cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: *dst, Bits: bits})
		en.Add(energy.GDL, fbits*e.GDLPerBit)
	default:
		// Cross-bank: GDL out of the source bank, I/O datapath across,
		// GDL into the destination bank.
		cmds = append(cmds,
			ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: locus, Bits: bits},
			ddr.Cmd{Kind: ddr.CmdIOMove, Addr: *dst, Bits: bits},
			ddr.Cmd{Kind: ddr.CmdGDLMove, Addr: *dst, Bits: bits})
		en.Add(energy.GDL, 2*fbits*e.GDLPerBit)
		en.Add(energy.IOBus, fbits*e.IOBusPerBit)
	}
	en.Add(energy.WriteDriver, fbits*e.WritePerBit)
	return append(cmds, ddr.Cmd{Kind: ddr.CmdWBack, Addr: *dst})
}

// ReadRow performs a conventional read of `bits` bits from a row to the
// host, returning latency/energy like Execute (used by baselines and the
// public API's Read). Like Execute's, the returned words are valid only
// until the controller's next execution.
func (c *Controller) ReadRow(addr memarch.RowAddr, bits int) (Result, error) {
	c.readSrc[0] = addr
	return c.Execute(sense.OpRead, c.readSrc[:], bits, nil)
}

// WriteRowFromHost performs a conventional write of `bits` bits from the
// host into a row, pricing the bus transfer and cell programming. Like an
// operation, it looks up or lowers its program (hostWriteProgram), then
// replays the write.
func (c *Controller) WriteRowFromHost(addr memarch.RowAddr, words []uint64, bits int) (Result, error) {
	geo := c.mem.Geometry()
	if bits < 1 || bits > geo.RowBits() {
		return Result{}, fmt.Errorf("pim: bits=%d outside 1..%d", bits, geo.RowBits())
	}
	if !geo.Valid(addr) {
		return Result{}, fmt.Errorf("pim: address %v outside geometry", addr)
	}
	if want := bitvec.WordsFor(bits); len(words) > want {
		return Result{}, fmt.Errorf("pim: %d words exceed %d-bit vector", len(words), bits)
	}
	p := c.hostWriteProgram(addr, bits)
	res := Result{Op: sense.OpRead, Class: p.class, Rows: 1, Bits: bits,
		Seconds: p.seconds, Energy: p.energy, Commands: p.commands}
	c.tally(&p)
	if err := c.store(addr, words); err != nil {
		return Result{}, err
	}
	if c.codec != nil {
		c.eccProgramHost(addr, words, bits, &res)
	}
	res.Words = words
	return res, nil
}

// hostWriteKey tags a host-write cache key. It is no sense.Op value, so a
// host write never shares a key with an op's lowering.
const hostWriteKey = 0xFF

// hostWriteProgram looks up or lowers the program of a host write of bits
// bits into addr, exactly as execute does an operation's: the fixed
// ACT/WR/PRE sequence, protocol-checked and priced, keyed by (bits, addr).
// Panics if the sequence violates the DDR protocol — a controller bug,
// never a caller error.
func (c *Controller) hostWriteProgram(addr memarch.RowAddr, bits int) progEntry {
	keyed := c.cache != nil
	if keyed {
		k := &c.keyBuf
		k.Reset()
		k.Byte(hostWriteKey)
		k.Int(bits)
		k.Uint64(c.mem.Geometry().Encode(addr))
	}
	if p := c.lookup(keyed); p != nil {
		return *p
	}
	cmds := append(c.newCmds(3, keyed),
		ddr.Cmd{Kind: ddr.CmdAct, Addr: addr},
		ddr.Cmd{Kind: ddr.CmdWr, Addr: addr, Bits: bits},
		ddr.Cmd{Kind: ddr.CmdPre, Addr: addr})
	if err := c.proto.Validate(cmds); err != nil {
		panic(fmt.Sprintf("pim: invalid host-write sequence: %v", err))
	}
	var en energy.Meter
	e := c.mem.Tech().Energy
	en.Add(energy.IOBus, float64(bits)*e.IOBusPerBit)
	en.Add(energy.WriteDriver, float64(bits)*e.WritePerBit)
	p := newProgEntry(ClassIntraSub, ddr.Duration(cmds, c.mem.Tech().Timing, c.bus), en, cmds, 0)
	c.remember(keyed, p)
	return p
}
