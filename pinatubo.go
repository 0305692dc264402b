// Package pinatubo is a software reproduction of "Pinatubo: A
// Processing-in-Memory Architecture for Bulk Bitwise Operations in Emerging
// Non-volatile Memories" (Li et al., DAC 2016).
//
// A System is a simulated NVM main memory (PCM by default) whose sense
// amplifiers, wordline drivers and buffers carry the Pinatubo
// modifications. Bit-vectors allocated through the PIM-aware allocator live
// one-per-row; bulk AND/OR/XOR/INV between them executes inside the memory,
// and every operation reports the latency and energy the architectural
// model attributes to it.
//
//	sys, _ := pinatubo.New(pinatubo.DefaultConfig())
//	vs, _ := sys.AllocGroup(64, 1<<16) // 64 co-located 64-Kbit vectors
//	dst, _ := sys.Alloc(1 << 16)
//	res, _ := sys.Or(dst, vs...)      // one-step 64-row OR in the SAs
//	fmt.Println(res.Latency, res.EnergyJoules)
//
// The internal packages contain the full evaluation apparatus: the analog
// sense-amplifier model, the DDR command layer, the SIMD / S-DRAM / AC-PIM
// baselines, the graph and bitmap-database workloads, and the figure
// harness that regenerates the paper's evaluation section (see cmd/figures
// and EXPERIMENTS.md).
package pinatubo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/chansim"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/ecc"
	"pinatubo/internal/fault"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// Tech selects the memory cell technology.
type Tech int

const (
	// PCM is 1T1R phase-change memory — the paper's case study, with
	// one-step OR of up to 128 rows.
	PCM Tech = iota
	// STTMRAM limits every operation to 2 rows (low ON/OFF ratio).
	STTMRAM
	// ReRAM behaves like PCM for Pinatubo purposes.
	ReRAM
	// DRAM selects the in-DRAM processing-using-memory backend: AND/OR by
	// triple-row activation over a designated compute-row group (majority
	// of the charge-shared cells), NOT through a dual-contact-cell row,
	// XOR synthesized from both, operands staged by RowClone-style bulk
	// copies. Operations are pairwise (like STT-MRAM, deep ORs chain),
	// each subarray loses 7 rows to the compute group, and the resistive
	// fault/replication machinery does not apply — DRAM has no sensing
	// margins to derate.
	DRAM
)

func (t Tech) internal() (nvm.Tech, error) {
	switch t {
	case PCM:
		return nvm.PCM, nil
	case STTMRAM:
		return nvm.STTMRAM, nil
	case ReRAM:
		return nvm.ReRAM, nil
	case DRAM:
		return nvm.DRAM, nil
	default:
		return 0, fmt.Errorf("pinatubo: unknown technology %d", int(t))
	}
}

// String names the technology.
func (t Tech) String() string {
	switch t {
	case PCM:
		return "PCM"
	case STTMRAM:
		return "STT-MRAM"
	case ReRAM:
		return "ReRAM"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// Config parameterises a System.
type Config struct {
	// Tech is the cell technology (default PCM).
	Tech Tech
	// Geometry overrides the memory organisation; zero value = default
	// (4 channels, 8 lock-step chips per rank, 2^19-bit rank rows).
	Geometry Geometry
	// AnalogCheckBits is the number of bit positions per operation that
	// are cross-validated through the analog sensing model (0 disables;
	// the default 8 catches reference-placement regressions at negligible
	// cost).
	AnalogCheckBits int
	// Fault injects hardware faults; the zero value injects nothing and
	// leaves every latency/energy number bit-identical to a fault-free
	// system.
	Fault FaultConfig
	// Resilience tunes the verify-and-retry ladder that guards results
	// when faults are injected.
	Resilience ResilienceConfig
}

// FaultConfig selects which hardware faults the simulated memory suffers.
// The zero value injects nothing. All faults are drawn deterministically
// from Seed, so a run is exactly reproducible.
type FaultConfig struct {
	// Seed makes the injected fault sequence reproducible.
	Seed int64
	// SenseFlipRate is the per-bit sense-amplifier misresolve probability
	// at the analog margin floor. The effective rate decays exponentially
	// as an operation's margin widens, so deep multi-row ORs flip near
	// this rate while 2-row ops and plain reads are orders of magnitude
	// safer.
	SenseFlipRate float64
	// ActivationFailRate is the transient multi-row activation failure
	// probability per additional simultaneously-opened row.
	ActivationFailRate float64
	// WearLimit is how many programs a row endures before developing a
	// permanent stuck-at bit (one more per further WearLimit programs).
	// 0 means unlimited endurance.
	WearLimit int64
	// DriftSeconds derates sensing margins for data that has drifted
	// since programming (PCM drift widens OR margins, making flips
	// rarer). 0 uses the fresh cell.
	DriftSeconds float64
}

func (f FaultConfig) internal() fault.Config {
	return fault.Config{
		Seed:               f.Seed,
		SenseFlipRate:      f.SenseFlipRate,
		ActivationFailRate: f.ActivationFailRate,
		WearLimit:          f.WearLimit,
		DriftSeconds:       f.DriftSeconds,
	}
}

// VerifyMode selects how (and whether) operation results are verified.
type VerifyMode int

const (
	// VerifyAuto (the zero value) turns read-back verification on exactly
	// when Config.Fault injects something — the historical default.
	VerifyAuto VerifyMode = iota
	// VerifyOff trusts the hardware even with faults injected — the system
	// returns whatever the faulty silicon produced (useful for measuring
	// raw error rates).
	VerifyOff
	// VerifyReadback verifies every operation by re-reading the
	// destination row and re-streaming the operands through the digital
	// checker — always correct, but the zero-fault overhead is ~44x on a
	// deep OR (see EXPERIMENTS.md).
	VerifyReadback
	// VerifyECC verifies through in-array SECDED check bits stored in
	// spare columns of each row: syndrome decode rides the program-verify
	// sense, single-bit errors are fixed in place, and only
	// detected-uncorrectable syndromes fall back to the read-back
	// degradation ladder. Zero-fault overhead is a few command-bus slots
	// per operation.
	VerifyECC
)

// String names the mode as the CLI -verify flag spells it.
func (m VerifyMode) String() string {
	switch m {
	case VerifyAuto:
		return "auto"
	case VerifyOff:
		return "off"
	case VerifyReadback:
		return "readback"
	case VerifyECC:
		return "ecc"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// ResilienceConfig tunes the verify-and-retry layer. By default
// (VerifyAuto) the layer turns on exactly when Config.Fault injects
// something: every operation is then verified and walked down the
// degradation ladder (retry → depth-split → inter-digital → host CPU)
// until it is provably correct — degraded results cost more but are never
// wrong.
type ResilienceConfig struct {
	// Verify selects the verification mode. VerifyAuto defers to the
	// fault configuration; VerifyECC stores SECDED check bits in spare
	// columns, one (72,64) code word per 64 data bits as on ECC DIMMs,
	// and verifies by syndrome decode instead of read-back.
	Verify VerifyMode

	// Replicate enables the proactive replication + majority-vote rung:
	// every allocated row gets Replicate-1 extra copies in its subarray,
	// intra-subarray operations activate and sense each copy set in turn,
	// and the result is the bitwise majority of the Replicate senses — so
	// a sense flip must strike the same bit in most copies to survive,
	// which turns reactive ladder degradations into clean first-try
	// results at the cost of Replicate× row capacity and extra activation
	// groups per request. Legal values are 0 (off) and odd counts 3..7.
	// The rung engages only when the resilience layer is active (the
	// effective verify mode is VerifyReadback or VerifyECC); with
	// verification off — including VerifyAuto with no faults injected —
	// replication is fully inert and the system stays bit-identical to an
	// unreplicated one.
	Replicate int
}

// mode validates and returns the configured mode.
func (rc ResilienceConfig) mode() (VerifyMode, error) {
	if rc.Verify < VerifyAuto || rc.Verify > VerifyECC {
		return 0, fmt.Errorf("pinatubo: unknown VerifyMode %d", int(rc.Verify))
	}
	if !analog.ValidReplication(rc.Replicate) {
		return 0, fmt.Errorf("pinatubo: Replicate=%d not 0 or an odd count in 3..7", rc.Replicate)
	}
	return rc.Verify, nil
}

// DefaultConfig returns the evaluation configuration: PCM, default
// geometry, light analog cross-checking.
func DefaultConfig() Config {
	return Config{Tech: PCM, Geometry: DefaultGeometry(), AnalogCheckBits: 8}
}

// System is one simulated Pinatubo memory plus its runtime stack.
type System struct {
	cfg    Config
	verify VerifyMode // effective mode (VerifyAuto already resolved)
	mem    *memarch.Memory
	ctl    *pim.Controller
	alloc  *pimrt.Allocator
	sched  *pimrt.Scheduler
	// led is the controller's ledger, the one every counter this System
	// reports lives in: the controller, scheduler (host reads and writes
	// included) and injector count into it, and so does account below.
	led *ledger.Ledger

	// replicate is the effective replication factor, 0 when the rung is
	// inert. Each replicated row's group is part of its record in mem
	// (memarch.Memory.SetGroup).
	replicate int

	// rowScratch is Apply's per-row-batch operand address buffer, reused
	// across calls so a steady-state fixed-arity Apply allocates nothing
	// for it.
	rowScratch []memarch.RowAddr
	// prog is the lowered cmdstream program of the operation in progress:
	// every scheduled row chunk of an Apply and every host read, in
	// execution order. beginOp empties it; the batch executor converts it
	// to the op's channel request after each op (opRequest).
	prog cmdstream.Program
	// reqCmds holds the commands of the channel requests opRequest built
	// for the window in progress, back to back: each request's Cmds are a
	// capped view of it. A pooled sandbox rewinds it when it is reset, and
	// the live System when a sequential replay starts, after the window
	// before has been scheduled.
	reqCmds []chansim.Cmd

	// sandboxPool recycles shard-sandbox Systems across batch windows
	// (window.go): reset-on-get, capped, guarded by poolMu because Start
	// and Wait may run while shard goroutines of an earlier window are
	// still winding down. poolGets/poolReuses are the observability
	// counters PerfStats reports.
	poolMu      sync.Mutex
	sandboxPool []*System
	poolGets    int64
	poolReuses  int64
	// ownedRows is a window merge's buffer: the rows one shard sandbox
	// owns (Memory.AppendOwnedAddrs).
	ownedRows []memarch.RowAddr
	// shardDst is a shard sandbox's copy of the destination rows of the
	// op it is running (window.go's runShard), so a remap inside the
	// shard moves the copy, never the live vector's rows.
	shardDst []memarch.RowAddr
}

// VerifyMode returns the effective verification mode the system runs under
// (VerifyAuto resolved against the fault configuration at New time).
func (s *System) VerifyMode() VerifyMode { return s.verify }

// Stats accumulates the system's lifetime activity. Batch execution feeds
// the same ledger: after a Batch the counters equal what the same ops
// issued sequentially through Apply would have left (integer counters
// exactly; summed float totals can differ by ULPs when more than one shard
// ran, because float addition is not associative).
type Stats struct {
	// Ops counts completed bulk operations by placement class name
	// ("intra-subarray", "inter-subarray", "inter-bank").
	Ops map[string]int64
	// Requests is the number of hardware requests issued (a logical OR
	// over many rows may take several).
	Requests int64
	// BusySeconds and EnergyJoules total the simulated time and energy of
	// all operations, including host reads/writes.
	BusySeconds  float64
	EnergyJoules float64
}

// New builds a system.
func New(cfg Config) (*System, error) {
	return newSystem(cfg, cmdstream.NewCache())
}

// newSystem builds a system whose controller serves lowerings from cache
// (nil: no program cache). New gives each System a cache of its own; a
// window sandbox is built with its System's (getSandbox).
func newSystem(cfg Config, cache *cmdstream.Cache) (*System, error) {
	tech, err := cfg.Tech.internal()
	if err != nil {
		return nil, err
	}
	mode, err := cfg.Resilience.mode()
	if err != nil {
		return nil, err
	}
	geo := cfg.Geometry.internal()
	if geo == (memarch.Geometry{}) {
		geo = memarch.Default()
	}
	mem, err := memarch.NewMemory(geo, nvm.Get(tech))
	if err != nil {
		return nil, err
	}
	ctl, err := pim.NewController(mem, cfg.AnalogCheckBits)
	if err != nil {
		return nil, err
	}
	// Reserve the scheduler's scratch row plus whatever the technology
	// backend claims as designated compute rows (0 for the NVMs, the TRA
	// group for DRAM) at the tail of every subarray.
	reserve := 1 + ctl.Backend().Caps().ComputeRows
	if geo.RowsPerSubarray-reserve < 2 {
		return nil, fmt.Errorf("pinatubo: %d rows per subarray leave fewer than 2 usable after the %d reserved for scratch and the %s backend",
			geo.RowsPerSubarray, reserve, cfg.Tech)
	}
	alloc, err := pimrt.NewAllocatorTail(geo, reserve)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		mem:   mem,
		ctl:   ctl,
		alloc: alloc,
		led:   ctl.Ledger(),
	}
	ctl.SetProgramCache(cache)
	faultCfg := cfg.Fault.internal()
	if err := faultCfg.Validate(); err != nil {
		return nil, err
	}
	if tech == nvm.DRAM {
		// The fault model derates resistive sensing margins and the
		// replication rung majority-votes repeated analog senses — neither
		// has a physical meaning for charge-based TRA compute, so both are
		// configuration errors rather than silent no-ops.
		if faultCfg.Enabled() {
			return nil, errors.New("pinatubo: fault injection models resistive sensing margins; not supported with Tech: DRAM")
		}
		if cfg.Resilience.Replicate != 0 {
			return nil, errors.New("pinatubo: Replicate requires modified-SA multi-row sensing; not supported with Tech: DRAM")
		}
	}
	if mode == VerifyAuto {
		// The historical default: read-back verification exactly when the
		// fault model injects something.
		if faultCfg.Enabled() {
			mode = VerifyReadback
		} else {
			mode = VerifyOff
		}
	}
	s.verify = mode
	rowBits := geo.RowBits()
	if mode == VerifyECC {
		codec, err := ecc.New(64)
		if err != nil {
			return nil, err
		}
		ctl.EnableECC(codec)
		// Stuck-at positions must be able to land in the spare columns too.
		rowBits = pim.ECCRowBits(geo, codec)
	}
	if faultCfg.Enabled() {
		inj, err := fault.New(faultCfg, nvm.Get(tech), analog.DefaultSenseConfig(), rowBits, s.led)
		if err != nil {
			return nil, err
		}
		if err := ctl.AttachInjector(inj); err != nil {
			return nil, err
		}
	}
	// The scheduler verifies exactly under VerifyReadback and VerifyECC,
	// leading with SECDED when the controller has the codec attached
	// above, and retires damaged rows through the allocator.
	verified := mode == VerifyReadback || mode == VerifyECC
	s.sched = &pimrt.Scheduler{Ctl: ctl, Verify: verified, Alloc: alloc}
	if verified && cfg.Resilience.Replicate != 0 {
		// The proactive rung: replicate rows at allocation, majority-vote
		// intra-subarray requests, spread wear across the copies. Gated on
		// the resilience layer being active so that a fault-free system
		// with Replicate set stays bit-identical to the baseline.
		s.replicate = cfg.Resilience.Replicate
	}
	return s, nil
}

// dropReplicas releases a row's replicas back to the allocator and forgets
// its replica group — used when a primary row is retired and remapped
// mid-operation (the fresh row starts life unreplicated; voting simply
// stops applying to requests that touch it).
func (s *System) dropReplicas(primary memarch.RowAddr) {
	if reps := s.mem.DropGroup(primary); reps != nil {
		s.alloc.Free(reps)
	}
}

// beginOp starts a public operation: it empties the operation's program
// buffer, releases the controller's command arena the previous
// operation's program was lowered into, and opens a fresh per-operation
// fault substream. Every public operation (Apply/Batch op, Write, Read)
// draws its faults from a stream seeded by (Seed, operation sequence
// number), which is what lets Batch run fault-injected shards
// concurrently yet produce exactly the faults sequential execution would
// have drawn.
func (s *System) beginOp() {
	s.prog.Reset()
	s.ctl.ReleaseCommands()
	if inj := s.ctl.Injector(); inj != nil {
		inj.BeginOp()
	}
}

// MaxORRows returns the one-step OR depth of the configured technology
// (128 for PCM/ReRAM, 2 for STT-MRAM and DRAM). Wider ORs are legal — the
// runtime chains them — but pay intermediate writebacks.
func (s *System) MaxORRows() int { return s.ctl.MaxORRows() }

// UsableRowsPerSubarray reports how many rows of each subarray the
// allocator may hand out: the geometry's rows minus the scheduler's
// scratch row and the technology backend's reserved compute rows (0 for
// the NVMs, 7 for DRAM).
func (s *System) UsableRowsPerSubarray() int { return s.alloc.UsableRowsPerSubarray() }

// RowBits returns the rank-logical row length in bits: vectors up to this
// length occupy a single row and enjoy one-step operations.
func (s *System) RowBits() int { return s.mem.Geometry().RowBits() }

// Stats returns a snapshot of the accumulated statistics. Stats,
// HardwareCounters and FaultStats are together the one mapping of the
// System's counter ledger onto the public structs; the maps carry a key
// exactly when its count is non-zero.
func (s *System) Stats() Stats {
	out := Stats{
		Ops:          make(map[string]int64),
		Requests:     s.led.Count[ledger.Requests],
		BusySeconds:  s.led.BusySeconds,
		EnergyJoules: s.led.EnergyJoules,
	}
	for c := PlaceHostRead; c <= PlaceInterBank; c++ {
		if n := s.led.Count[opsCounter(c)]; n != 0 {
			out.Ops[c.String()] = n
		}
	}
	return out
}

// opsCounter returns the ledger counter of completed operations in class.
func opsCounter(class PlacementClass) ledger.Counter {
	return ledger.OpsHostRead + ledger.Counter(class-PlaceHostRead)
}

// PerfStats are the simulator's own raw-speed counters: how often the
// lowered-program cache short-circuited lowering and how often a batch
// window reused a pooled shard sandbox instead of building a fresh one.
// They live apart from Stats on purpose — Stats describes the simulated
// hardware's activity (identical whether or not the cache is on), while
// PerfStats describes the wall-clock machinery underneath it.
type PerfStats struct {
	// ProgramCacheHits / ProgramCacheMisses count executions served from /
	// added to the lowered-program cache. A System's window sandboxes
	// share its cache, so their executions count as they happen.
	ProgramCacheHits   int64
	ProgramCacheMisses int64
	// ProgramCacheEvictions counts cached programs dropped because the
	// cache reached its fixed entry cap.
	ProgramCacheEvictions int64
	// ProgramCacheEntries is the cache's current program count, the
	// sandboxes' lowerings included.
	ProgramCacheEntries int
	// SandboxPoolGets counts shard sandboxes handed out for batch windows;
	// SandboxPoolReuses counts how many of those were recycled from the
	// pool rather than constructed.
	SandboxPoolGets   int64
	SandboxPoolReuses int64
}

// PerfStats returns a snapshot of the raw-speed counters.
func (s *System) PerfStats() PerfStats {
	cs := s.ctl.CacheStats()
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return PerfStats{
		ProgramCacheHits:      cs.Hits,
		ProgramCacheMisses:    cs.Misses,
		ProgramCacheEvictions: cs.Evictions,
		ProgramCacheEntries:   cs.Entries,
		SandboxPoolGets:       s.poolGets,
		SandboxPoolReuses:     s.poolReuses,
	}
}

// sandboxPoolCap bounds how many released shard sandboxes the pool keeps.
// A window runs one sandbox per shard, so the cap only matters for
// pathologically wide windows; beyond it, sandboxes fall back to GC.
const sandboxPoolCap = 64

// getSandbox returns a shard-sandbox System: a pooled one, reset to the
// exact observable state New(s.cfg) would produce, or a freshly built one
// when the pool is empty. A fresh sandbox is built with s's program cache
// (none when s's is off), and a pooled one keeps it.
func (s *System) getSandbox() (*System, error) {
	s.poolMu.Lock()
	var sb *System
	if n := len(s.sandboxPool); n > 0 {
		sb = s.sandboxPool[n-1]
		s.sandboxPool[n-1] = nil
		s.sandboxPool = s.sandboxPool[:n-1]
	}
	s.poolGets++
	if sb != nil {
		s.poolReuses++
	}
	s.poolMu.Unlock()
	if sb == nil {
		return newSystem(s.cfg, s.ctl.ProgramCache())
	}
	sb.resetForReuse()
	return sb, nil
}

// putSandbox releases a shard sandbox back to the pool once its window is
// finished (merged or discarded). Its ledger was absorbed by the merge,
// if any, and is cleared with one Reset on the sandbox's next get; its
// program-cache traffic is already in the System's cache. Its last op's
// program and scheduler result are emptied now, so the pool does not
// keep that op's command sequences and result words alive.
func (s *System) putSandbox(sb *System) {
	if sb == nil {
		return
	}
	sb.prog.Reset()
	sb.sched.Reset()
	s.poolMu.Lock()
	if len(s.sandboxPool) < sandboxPoolCap {
		s.sandboxPool = append(s.sandboxPool, sb)
	}
	s.poolMu.Unlock()
}

// resetForReuse restores a pooled sandbox to the observable state of a
// fresh New(s.cfg) System: memory content, allocator frontier, controller
// mode registers, analog-check sampling stream, fault state and scheduler
// all rewind, and the one counter ledger clears with a single Reset, so a
// reused sandbox replays a shard bit-identically to a fresh one.
// Differential tests pin that. Its request buffer rewinds too: the window
// that last used the sandbox scheduled its requests before releasing it.
func (s *System) resetForReuse() {
	s.reqCmds = s.reqCmds[:0]
	s.mem.Reset()
	s.alloc.Reset()
	s.ctl.ResetForReuse()
	if inj := s.ctl.Injector(); inj != nil {
		inj.Reset()
	}
	s.sched.Reset()
	s.led.Reset()
}

// BitVector is a handle to a bit-vector stored in the PIM memory.
type BitVector struct {
	sys  *System
	bits int
	rows []memarch.RowAddr
}

// Len returns the vector length in bits.
func (b *BitVector) Len() int { return b.bits }

// Rows returns the number of physical rows backing the vector.
func (b *BitVector) Rows() int { return len(b.rows) }

// ErrFreed is returned when a freed vector is used.
var ErrFreed = errors.New("pinatubo: bit-vector already freed")

// ErrResilienceExhausted is wrapped into the error returned when the
// verify-and-retry layer walks every rung of its degradation ladder without
// obtaining a verified result. Match with errors.Is.
var ErrResilienceExhausted = pimrt.ErrResilienceExhausted

// ErrUncorrectable is wrapped alongside ErrResilienceExhausted when the
// failure began as a SECDED detected-uncorrectable syndrome (VerifyECC
// mode) and the ladder could not recover either. Match with errors.Is.
var ErrUncorrectable = pimrt.ErrUncorrectable

func (b *BitVector) check(s *System) error {
	if b == nil || b.sys == nil {
		return ErrFreed
	}
	if b.sys != s {
		return errors.New("pinatubo: bit-vector belongs to a different system")
	}
	return nil
}

func (s *System) rowsFor(bits int) (int, error) {
	if bits < 1 {
		return 0, fmt.Errorf("pinatubo: vector of %d bits", bits)
	}
	return (bits-1)/s.RowBits() + 1, nil
}

// Alloc allocates one bit-vector (pim_malloc). With the replication rung
// active, every row is allocated as a subarray-local group of Replicate
// copies: the first is the primary the vector names, the rest are the
// replicas the majority vote senses. A failed Alloc takes no rows, and a
// request for more rows than are left fails before it allocates anything.
func (s *System) Alloc(bits int) (*BitVector, error) {
	n, err := s.rowsFor(bits)
	if err != nil {
		return nil, err
	}
	if s.replicate >= 3 {
		if left := s.alloc.RowsLeft() / s.replicate; n > left {
			return nil, fmt.Errorf("pinatubo: allocating %d replicated rows (%d left): %w",
				n, left, pimrt.ErrOutOfMemory)
		}
		start := s.alloc.Mark()
		rows := make([]memarch.RowAddr, 0, n)
		for i := 0; i < n; i++ {
			grp, err := s.alloc.AllocGroupRows(s.replicate)
			if err != nil {
				// All or nothing: hand back every group taken so far.
				var taken []memarch.RowAddr
				for _, p := range rows {
					taken = append(append(taken, p), s.mem.DropGroup(p)...)
				}
				s.alloc.Rollback(start, taken)
				return nil, err
			}
			s.mem.SetGroup(grp[0], grp[1:])
			rows = append(rows, grp[0])
		}
		return &BitVector{sys: s, bits: bits, rows: rows}, nil
	}
	rows, err := s.alloc.AllocRows(n)
	if err != nil {
		return nil, err
	}
	return &BitVector{sys: s, bits: bits, rows: rows}, nil
}

// AllocGroup allocates count single-row vectors guaranteed to share a
// subarray, so operations across the whole group are one-step multi-row
// ops. Each vector must fit one row.
func (s *System) AllocGroup(count, bits int) ([]*BitVector, error) {
	if count < 1 || count > s.UsableRowsPerSubarray() {
		return nil, fmt.Errorf("pinatubo: group of %d vectors (a subarray has %d usable rows)",
			count, s.UsableRowsPerSubarray())
	}
	if bits < 1 || bits > s.RowBits() {
		return nil, fmt.Errorf("pinatubo: group vectors must fit one row (1..%d bits), got %d",
			s.RowBits(), bits)
	}
	n := count
	if s.replicate >= 3 {
		// One group allocation holds the primaries and every replica in the
		// same subarray, so grouped operands stay votable.
		n = count * s.replicate
	}
	rows, err := s.alloc.AllocGroupRows(n)
	if err != nil {
		return nil, err
	}
	if s.replicate >= 3 {
		per := s.replicate - 1
		for i := 0; i < count; i++ {
			s.mem.SetGroup(rows[i], rows[count+i*per:count+(i+1)*per])
		}
	}
	out := make([]*BitVector, count)
	for i := range out {
		out[i] = &BitVector{sys: s, bits: bits, rows: rows[i : i+1]}
	}
	return out, nil
}

// Free returns the vector's rows to the allocator.
func (s *System) Free(b *BitVector) error {
	if err := b.check(s); err != nil {
		return err
	}
	for _, row := range b.rows {
		s.dropReplicas(row)
	}
	s.alloc.Free(b.rows)
	b.sys = nil
	return nil
}

// Result reports one logical operation's cost.
type Result struct {
	// Class is the dominant placement class. Its String() form ("intra-
	// subarray", ...) matches the pre-enum API, so %s formatting and JSON
	// output are unchanged.
	Class PlacementClass
	// Requests is the number of hardware requests the runtime issued.
	Requests int
	// Latency is the simulated time on the memory channel.
	Latency time.Duration
	// EnergyJoules is the simulated energy.
	EnergyJoules float64
	// Count is the population count for OpPopcount results; nil for every
	// other operation.
	Count *int

	// Resilience outcome — all zero unless faults were injected and the
	// verify-and-retry layer had to intervene. This and the replication
	// outcome below are the op's share of FaultStats: what the System's
	// ledger counted while the op ran (zero for Write, Read and
	// Popcount).
	//
	// Retries counts hardware re-executions; Degraded names the worst
	// degradation rung taken ("", "depth-split", "inter-digital",
	// "host-cpu"); BitsCorrected counts wrong bits the verification layer
	// intercepted before they could reach the caller, read-back and
	// SECDED alike.
	Retries       int
	Degraded      string
	BitsCorrected int64

	// Proactive replication outcome — all zero unless Resilience.Replicate
	// was set. Votes counts majority-voted activations taken; BitsOutvoted
	// counts bit positions where the replica copies disagreed and the
	// majority overruled the minority.
	Votes        int
	BitsOutvoted int64
}

func (s *System) account(class PlacementClass, requests int, seconds, joules float64) Result {
	s.led.Count[opsCounter(class)]++
	s.led.Count[ledger.Requests] += int64(requests)
	s.led.BusySeconds += seconds
	s.led.EnergyJoules += joules
	return Result{
		Class:        class,
		Requests:     requests,
		Latency:      time.Duration(seconds * float64(time.Second)),
		EnergyJoules: joules,
	}
}

// Write stores words into the vector through the host interface (DDR
// burst + cell programming), zero-filling beyond len(words).
func (s *System) Write(b *BitVector, words []uint64) (Result, error) {
	if err := b.check(s); err != nil {
		return Result{}, err
	}
	if len(words) > bitvec.WordsFor(b.bits) {
		return Result{}, fmt.Errorf("pinatubo: %d words exceed %d-bit vector", len(words), b.bits)
	}
	s.beginOp()
	var seconds, joules float64
	perRow := s.RowBits() / 64
	for i := range b.rows {
		lo := i * perRow
		hi := lo + perRow
		if hi > len(words) {
			hi = len(words)
		}
		var chunk []uint64
		if lo < len(words) {
			chunk = words[lo:hi]
		}
		bitsHere := s.RowBits()
		if i == len(b.rows)-1 {
			bitsHere = b.bits - i*s.RowBits()
		}
		old := b.rows[i]
		res, err := s.sched.Write(&b.rows[i], chunk, bitsHere)
		if err != nil {
			return Result{}, err
		}
		seconds += res.Cost.Seconds
		joules += res.Cost.Joules
		if b.rows[i] != old {
			// The write retired and remapped the row: the fresh row has no
			// replicas, so it simply falls back to unreplicated execution
			// (verification still guards it).
			s.dropReplicas(old)
		}
		sec, j, err := s.programReplicas(b.rows[i], chunk, bitsHere)
		if err != nil {
			return Result{}, err
		}
		seconds += sec
		joules += j
	}
	return s.account(PlaceHostWrite, len(b.rows), seconds, joules), nil
}

// programReplicas mirrors a freshly written primary row into its replicas
// with plain (unverified) host programs — the majority vote tolerates an
// imperfect copy, and every voted result is still verified downstream.
// The cost of keeping R copies is priced as the R-1 extra programs it is.
func (s *System) programReplicas(primary memarch.RowAddr, chunk []uint64, bitsHere int) (float64, float64, error) {
	var seconds, joules float64
	for _, rep := range s.mem.Replicas(primary) {
		r, err := s.ctl.WriteRowFromHost(rep, chunk, bitsHere)
		if err != nil {
			return seconds, joules, err
		}
		seconds += r.Seconds
		joules += r.Energy.Total()
	}
	return seconds, joules, nil
}

// Read returns the vector contents through the host interface. The
// returned words are the caller's.
func (s *System) Read(b *BitVector) ([]uint64, Result, error) {
	if err := b.check(s); err != nil {
		return nil, Result{}, err
	}
	s.beginOp()
	words := make([]uint64, 0, bitvec.WordsFor(b.bits))
	res, err := s.readInto(b.rows, b.bits, func(row []uint64, _ int) { words = append(words, row...) })
	if err != nil {
		return nil, Result{}, err
	}
	return words[:bitvec.WordsFor(b.bits)], res, nil
}

// readInto reads a vector of bits bits stored in rows through the host
// interface row by row and hands each row's sensed words, with the row's
// bit count, to visit before the next row is read. The words are the
// controller's (pim.Result.Words) and the next read overwrites them, so
// visit copies whatever it keeps. Every controller request and
// verification pass of the read is lowered into the operation's program,
// so the batch executor schedules host reads (OpPopcount) on the channel
// like any other operation. The caller has checked the vector.
func (s *System) readInto(rows []memarch.RowAddr, bits int, visit func(row []uint64, bits int)) (Result, error) {
	var seconds, joules float64
	for i, addr := range rows {
		bitsHere := s.RowBits()
		if i == len(rows)-1 {
			bitsHere = bits - i*s.RowBits()
		}
		res, err := s.sched.Read(addr, bitsHere)
		if err != nil {
			return Result{}, err
		}
		s.prog.Append(res.Program)
		visit(res.Words, bitsHere)
		seconds += res.Cost.Seconds
		joules += res.Cost.Joules
	}
	return s.account(PlaceHostRead, len(rows), seconds, joules), nil
}

// sameLength validates operand lengths.
func sameLength(dst *BitVector, srcs ...*BitVector) error {
	for _, src := range srcs {
		if src.bits != dst.bits {
			return fmt.Errorf("pinatubo: length mismatch: %d vs %d bits", src.bits, dst.bits)
		}
	}
	return nil
}

// Op identifies one of the public bulk bitwise operations. It exists so
// generic callers (benchmark harnesses, workload replayers) can drive the
// system through a single entry point — Apply — instead of switching over
// method names; Or/And/Xor/Not/Copy are thin wrappers over it.
type Op int

const (
	// OpOr ORs any number of operands ≥ 1 (one-step multi-row activation,
	// chained past the technology's depth limit).
	OpOr Op = iota
	// OpAnd ANDs exactly 2 operands (shifted-reference sensing).
	OpAnd
	// OpXor XORs exactly 2 operands (two SA micro-steps).
	OpXor
	// OpNot inverts exactly 1 operand (the latch's differential output).
	OpNot
	// OpCopy copies exactly 1 operand (read/write-back pass).
	OpCopy
	// OpPopcount counts the set bits of dst on the host CPU (no sources —
	// Pinatubo has no in-memory reduction; the vector is burst over the
	// bus and counted there). The count lands in Result.Count.
	OpPopcount
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	case OpXor:
		return "xor"
	case OpNot:
		return "not"
	case OpCopy:
		return "copy"
	case OpPopcount:
		return "popcount"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// internal maps the public op onto the sense-amplifier command.
func (o Op) internal() (sense.Op, error) {
	switch o {
	case OpOr:
		return sense.OpOR, nil
	case OpAnd:
		return sense.OpAND, nil
	case OpXor:
		return sense.OpXOR, nil
	case OpNot:
		return sense.OpINV, nil
	case OpCopy:
		return sense.OpRead, nil
	case OpPopcount:
		return 0, fmt.Errorf("pinatubo: %v runs on the host, not the sense amplifiers", o)
	default:
		return 0, fmt.Errorf("pinatubo: unknown Op %d", int(o))
	}
}

// arity returns the operation's source-operand bounds (max < 0 = unbounded).
func (o Op) arity() (min, max int) {
	switch o {
	case OpOr:
		return 1, -1
	case OpNot, OpCopy:
		return 1, 1
	case OpPopcount:
		return 0, 0
	default:
		return 2, 2
	}
}

// PlacementClass identifies the data path a completed operation took,
// ordered from host traffic through the in-memory classes fastest to
// slowest — comparing two classes with < / > ranks them, and the worst
// (largest) in-memory class is the one that bounds a batched operation.
type PlacementClass int

const (
	// PlaceNone is the zero value: no class established yet.
	PlaceNone PlacementClass = iota
	// PlaceHostRead is a host-interface read (DDR burst to the CPU).
	PlaceHostRead
	// PlaceHostWrite is a host-interface write (DDR burst + programming).
	PlaceHostWrite
	// PlaceIntraSubarray: all operand rows share a subarray; one-step
	// multi-row sensing.
	PlaceIntraSubarray
	// PlaceInterSubarray: operands share a bank but not a subarray.
	PlaceInterSubarray
	// PlaceInterBank: operands share a rank but not a bank.
	PlaceInterBank
)

// String names the class exactly as the pre-enum string API spelled it, so
// text and JSON output are unchanged.
func (c PlacementClass) String() string {
	switch c {
	case PlaceNone:
		return ""
	case PlaceHostRead:
		return "host-read"
	case PlaceHostWrite:
		return "host-write"
	case PlaceIntraSubarray:
		return "intra-subarray"
	case PlaceInterSubarray:
		return "inter-subarray"
	case PlaceInterBank:
		return "inter-bank"
	default:
		return fmt.Sprintf("PlacementClass(%d)", int(c))
	}
}

// MarshalJSON encodes the class as its name, keeping JSON output identical
// to the former string-typed field.
func (c PlacementClass) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// worseClass folds per-batch placement classes into the dominant (slowest)
// one, so a multi-row vector reports the class that actually bounds it.
func worseClass(a, b PlacementClass) PlacementClass {
	if b > a {
		return b
	}
	return a
}

// placementClass maps an operand placement onto the public class.
func placementClass(p workload.Placement) PlacementClass {
	switch p {
	case workload.PlaceInterBank:
		return PlaceInterBank
	case workload.PlaceInterSub:
		return PlaceInterSubarray
	default:
		return PlaceIntraSubarray
	}
}

// validateOp checks an operation's arity and operand handles/lengths — the
// shared front door of Apply and Batch.
func (s *System) validateOp(op Op, dst *BitVector, srcs []*BitVector) error {
	if op == OpPopcount {
		if len(srcs) != 0 {
			return fmt.Errorf("pinatubo: %v takes no source operands, got %d", op, len(srcs))
		}
		return dst.check(s)
	}
	if _, err := op.internal(); err != nil {
		return err
	}
	if lo, hi := op.arity(); len(srcs) < lo || (hi >= 0 && len(srcs) > hi) {
		if lo == hi {
			return fmt.Errorf("pinatubo: %v takes %d operand(s), got %d", op, lo, len(srcs))
		}
		return fmt.Errorf("pinatubo: %v takes at least %d operand(s), got %d", op, lo, len(srcs))
	}
	if err := b0check(s, dst, srcs); err != nil {
		return err
	}
	// A vector named twice would activate one row twice, which the
	// controller refuses only after the op has begun; refuse it here, so
	// a Batch or window never admits an op that cannot run.
	for i, src := range srcs {
		for j, prev := range srcs[:i] {
			if prev == src {
				return fmt.Errorf("pinatubo: %v names one source vector twice (operands %d and %d)", op, j, i)
			}
		}
	}
	return sameLength(dst, srcs...)
}

// Apply computes dst = op(srcs...) inside the memory. It validates the
// operation's arity, runs every row batch of the vectors through the
// runtime scheduler, and reports the folded cost with Class set to the
// worst placement class any batch took (the native path of the operands,
// even when a batch was degraded to a slower one by the resilience layer).
//
// Options: WithContext attaches cancellation, observed between row
// chunks — a cancelled multi-row Apply stops with ctx.Err() and the
// completed prefix of row batches stays applied, exactly as if a shorter
// vector had been processed. WithArbiter is accepted for signature
// uniformity but has no effect: a single Apply issues its requests
// back-to-back, so there is nothing to arbitrate.
func (s *System) Apply(op Op, dst *BitVector, srcs []*BitVector, opts ...Option) (Result, error) {
	o, err := resolveOpts(opts)
	if err != nil {
		return Result{}, err
	}
	if err := s.validateOp(op, dst, srcs); err != nil {
		return Result{}, err
	}
	return s.applyRows(op, dst.rows, dst.bits, srcs, o)
}

// applyRows is Apply's row executor, the one way an op runs: it executes
// a validated op over the source vectors' rows into dst, the rows of a
// bits-bit destination, with resolved per-call options. A destination row
// the resilience layer retires is replaced in dst. The Result's
// resilience outcome is what the ledger counted while the op ran
// (resilienceSince), so it is exactly the op's share of FaultStats. Apply
// passes the destination vector's own rows. A window shard passes its
// sandbox's copy of them and the live source vectors, whose rows nothing
// moves between Start and Wait (window.go); the batch executors call it
// with zero options (no cancellation between row chunks) and copy the
// operation's program out of s.prog.
func (s *System) applyRows(op Op, dst []memarch.RowAddr, bits int, srcs []*BitVector, o callOpts) (Result, error) {
	s.beginOp()
	if op == OpPopcount {
		// Host-side reduction over dst itself: read the vector out and
		// count there; the cost is exactly the host read. Each row is
		// counted as it arrives (masking its partial tail word), so no
		// vector is assembled.
		n := 0
		res, err := s.readInto(dst, bits, func(row []uint64, bits int) { n += bitvec.PopcountWords(row, bits) })
		if err != nil {
			return Result{}, err
		}
		res.Count = &n
		return res, nil
	}
	sop, err := op.internal()
	if err != nil {
		return Result{}, err
	}
	before := s.led.Count
	var seconds, joules float64
	requests := 0
	class := PlaceNone
	if cap(s.rowScratch) < len(srcs) {
		s.rowScratch = make([]memarch.RowAddr, len(srcs))
	}
	for batch := 0; batch < len(dst); batch++ {
		if batch > 0 && o.ctx != nil {
			// Cancellation is observed between row chunks: the completed
			// prefix stays applied, the remainder never starts.
			if err := o.ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		rows := s.rowScratch[:len(srcs)]
		for i, src := range srcs {
			rows[i] = src.rows[batch]
		}
		bitsHere := s.RowBits()
		if batch == len(dst)-1 {
			bitsHere = bits - batch*s.RowBits()
		}
		p, err := pimrt.PlacementOf(rows)
		if err != nil {
			return Result{}, err
		}
		class = worseClass(class, placementClass(p))
		res, err := s.sched.Execute(sop, rows, bitsHere, dst[batch])
		if err != nil {
			return Result{}, err
		}
		if res.FinalDst != dst[batch] {
			s.dropReplicas(dst[batch])
			dst[batch] = res.FinalDst
		}
		s.prog.Append(res.Program)
		seconds += res.Cost.Seconds
		joules += res.Cost.Joules
		requests += res.Requests
	}
	return s.resilienceSince(&before, s.account(class, requests, seconds, joules)), nil
}

// The degradation rungs a Result names, mildest first.
const (
	degradedDepthSplit = "depth-split"
	degradedInter      = "inter-digital"
	degradedHost       = "host-cpu"
)

// resilienceSince returns r with its resilience outcome set from what the
// ledger counted since it held the counts in before: the retries, the
// wrong bits read-back verification and SECDED intercepted, the votes and
// the bits they overruled, and the worst rung whose counter moved.
func (s *System) resilienceSince(before *[ledger.NumCounters]int64, r Result) Result {
	now := &s.led.Count
	delta := func(c ledger.Counter) int64 { return now[c] - before[c] }
	r.Retries = int(delta(ledger.Retries))
	r.BitsCorrected = delta(ledger.BitsCorrected) + delta(ledger.EccCorrectedBits)
	r.Votes = int(delta(ledger.Votes))
	r.BitsOutvoted = delta(ledger.BitsOutvoted)
	switch {
	case delta(ledger.HostFallbacks) > 0:
		r.Degraded = degradedHost
	case delta(ledger.InterFallbacks) > 0:
		r.Degraded = degradedInter
	case delta(ledger.DepthReductions) > 0:
		r.Degraded = degradedDepthSplit
	}
	return r
}

// Or computes dst = OR of all srcs inside the memory. Any number of
// operands ≥ 1 is accepted: the runtime schedules per-subarray one-step
// multi-row ORs (up to MaxORRows) and combines partial results.
func (s *System) Or(dst *BitVector, srcs ...*BitVector) (Result, error) {
	return s.Apply(OpOr, dst, srcs)
}

// b0check validates dst and srcs handles.
func b0check(s *System, dst *BitVector, srcs []*BitVector) error {
	if err := dst.check(s); err != nil {
		return err
	}
	for _, src := range srcs {
		if err := src.check(s); err != nil {
			return err
		}
	}
	return nil
}

// And computes dst = a AND b (2-row operation via the shifted reference).
func (s *System) And(dst, a, b *BitVector) (Result, error) {
	return s.Apply(OpAnd, dst, []*BitVector{a, b})
}

// Xor computes dst = a XOR b (two SA micro-steps).
func (s *System) Xor(dst, a, b *BitVector) (Result, error) {
	return s.Apply(OpXor, dst, []*BitVector{a, b})
}

// Not computes dst = NOT a (the latch's differential output).
func (s *System) Not(dst, a *BitVector) (Result, error) {
	return s.Apply(OpNot, dst, []*BitVector{a})
}

// Copy computes dst = a through a read/write-back pass.
func (s *System) Copy(dst, a *BitVector) (Result, error) {
	return s.Apply(OpCopy, dst, []*BitVector{a})
}

// Popcount reads the vector to the host and counts set bits, charging the
// host-read cost (Pinatubo has no in-memory popcount; the paper leaves
// reduction operations to the CPU). It is a thin wrapper over
// Apply(OpPopcount, b): the count also lands in Result.Count.
func (s *System) Popcount(b *BitVector) (int, Result, error) {
	res, err := s.Apply(OpPopcount, b, nil)
	if err != nil {
		return 0, Result{}, err
	}
	return *res.Count, res, nil
}

// HardwareCounters mirrors the memory controller's lifetime activity
// counters — the DIMM-side view of the work done (row activations, sensing
// steps, cell programs, and how many data bits actually crossed the DDR
// bus — the quantity Pinatubo exists to minimise).
type HardwareCounters struct {
	OpsByClass  map[string]int64
	Activations int64
	SenseSteps  int64
	Writebacks  int64
	BusBits     int64
}

// HardwareCounters returns the controller's counters.
func (s *System) HardwareCounters() HardwareCounters {
	out := HardwareCounters{
		OpsByClass:  make(map[string]int64),
		Activations: s.led.Count[ledger.Activations],
		SenseSteps:  s.led.Count[ledger.SenseSteps],
		Writebacks:  s.led.Count[ledger.Writebacks],
		BusBits:     s.led.Count[ledger.BusBits],
	}
	for c := pim.ClassIntraSub; c <= pim.ClassInterBank; c++ {
		if n := s.led.Count[pim.OpsCounter(c)]; n != 0 {
			out.OpsByClass[c.String()] = n
		}
	}
	return out
}

// FaultStats is the system's cumulative fault-and-resilience record: what
// the injected fault model actually did to the hardware (ground truth) and
// what the verify-and-retry layer did about it. The five injector fields,
// SenseFlips through RowWrites, are ground truth and read zero without an
// injector (Config.Fault zero). The response fields count whenever
// verification runs, faults or not: a fault-free system under explicit
// VerifyReadback still counts Verifies, and under VerifyECC EccDecodes.
// Batch execution updates this record too: every op draws its faults from
// its own per-operation substream, so the merged shard ledgers read
// exactly as the same ops issued as a sequence of Apply calls.
type FaultStats struct {
	// Ground truth from the injector.
	SenseFlips       int64 // bits flipped on the sensing path
	ActivationFaults int64 // transient multi-row activation failures
	StuckRows        int64 // rows that developed stuck-at bits
	StuckBitsForced  int64 // written bits overridden by stuck cells
	RowWrites        int64 // row programs seen by the wear model

	// The resilience layer's response (PIM scheduler + host paths).
	Verifies        int64 // read-back verification passes
	Retries         int64 // request re-executions
	DepthReductions int64 // failing deep ORs re-run at lower depth
	InterFallbacks  int64 // requests degraded to the digital inter path
	HostFallbacks   int64 // requests degraded to the host CPU
	RowsRetired     int64 // worn rows retired and remapped
	BitsCorrected   int64 // wrong bits intercepted before reaching a caller

	// In-array SECDED activity — all zero outside VerifyECC mode.
	EccDecodes        int64 // syndrome decodes issued (PIM scheduler + host paths)
	EccCorrectedBits  int64 // bits fixed in place by SECDED correction
	EccUncorrectables int64 // double-bit syndromes escalated to the ladder

	// Proactive replication activity — all zero unless Resilience.Replicate
	// was set.
	Votes        int64 // majority-voted activations taken
	BitsOutvoted int64 // disagreeing bit positions overruled by the majority
}

// FaultStats returns a snapshot of the cumulative fault activity.
func (s *System) FaultStats() FaultStats {
	n := &s.led.Count
	return FaultStats{
		SenseFlips:        n[ledger.SenseFlips],
		ActivationFaults:  n[ledger.ActivationFaults],
		StuckRows:         n[ledger.StuckRows],
		StuckBitsForced:   n[ledger.StuckBitsForced],
		RowWrites:         n[ledger.RowWrites],
		Verifies:          n[ledger.Verifies],
		Retries:           n[ledger.Retries],
		DepthReductions:   n[ledger.DepthReductions],
		InterFallbacks:    n[ledger.InterFallbacks],
		HostFallbacks:     n[ledger.HostFallbacks],
		RowsRetired:       n[ledger.RowsRetired],
		BitsCorrected:     n[ledger.BitsCorrected],
		EccDecodes:        n[ledger.EccDecodes],
		EccCorrectedBits:  n[ledger.EccCorrectedBits],
		EccUncorrectables: n[ledger.EccUncorrectables],
		Votes:             n[ledger.Votes],
		BitsOutvoted:      n[ledger.BitsOutvoted],
	}
}

// HottestRow reports the most-programmed physical row and its write count —
// the PCM endurance hot spot (chained operations concentrate writes on
// accumulator rows; one-step multi-row ops do not).
func (s *System) HottestRow() (rowDescription string, writes int64) {
	addr, n := s.mem.HottestRow()
	if n == 0 {
		return "", 0
	}
	return addr.String(), n
}
