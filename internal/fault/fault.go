// Package fault is a deterministic, seedable fault-injection model for the
// Pinatubo stack. The paper dismisses reliability with "we assume the
// variation is well controlled"; this package models the three ways a real
// chip violates that assumption, so the controller and runtime above it can
// be exercised — and hardened — against them:
//
//   - Sense-bit flips. The probability a sense amplifier misresolves a bit
//     is derived from the analog margin model: a 128-row OR sits just above
//     the offset tolerance and flips often, a 2-row OR has ~20× the margin
//     and essentially never does. This is exactly the PULSAR observation
//     that simultaneous many-row activation is where chips get unreliable,
//     and it is what makes the runtime's depth-reduction retry effective:
//     splitting a failing deep OR into shallower ones widens the margin.
//
//   - Write-endurance wear. PCM cells endure a bounded number of programs;
//     rows written past Config.WearLimit develop permanent stuck-at bits
//     (one more per further WearLimit programs) that corrupt every
//     subsequent write to the row until the allocator retires it. The
//     injector is the wear policy only: each row's wear record lives in
//     the memory model (memarch.Wear), and the controller hands it over.
//
//   - Transient activation faults. Multi-row activation through the LWL
//     latches can fail outright (a latch misses its address slot); the
//     whole operation errors and must be reissued.
//
// Everything is driven by a single seeded PRNG plus per-row hashes, so a
// given seed and operation sequence reproduces the exact same faults —
// tests and the fault-sweep figure rely on that. The PRNG is a math/rand/v2
// PCG, the generator the SA model's analog check uses: it reseeds in place
// in two words, so reseeding once per operation costs next to nothing.
package fault

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pinatubo/internal/analog"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// Config parameterises the injector. The zero value injects nothing.
type Config struct {
	// Seed makes the injected fault sequence reproducible.
	Seed int64
	// SenseFlipRate is the per-bit misresolve probability of a sensing step
	// operating at the margin floor (margin == offset tolerance). The
	// effective per-bit probability decays exponentially as the operation's
	// analog margin widens beyond the floor, so deep multi-row ORs flip at
	// ~this rate while 2-row ops and plain reads are orders of magnitude
	// safer. 0 disables sense flips.
	SenseFlipRate float64
	// ActivationFailRate is the transient failure probability contributed by
	// each additional simultaneously-opened row: a multi-row activation of n
	// rows fails with probability (n-1)·ActivationFailRate (clamped below 1).
	// 0 disables activation faults.
	ActivationFailRate float64
	// WearLimit is how many programs a row endures before it develops a
	// stuck-at bit; every further WearLimit programs add one more. 0 means
	// unlimited endurance.
	WearLimit int64
	// DriftSeconds derates the sensing margins for data that has drifted
	// since programming. PCM RESET-state drift *widens* OR margins (RHigh
	// grows), so larger values make sense flips rarer; the knob exists so
	// sweeps can show that, not to make faults worse. 0 uses the fresh cell.
	DriftSeconds float64
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.SenseFlipRate > 0 || c.ActivationFailRate > 0 || c.WearLimit > 0
}

// Validate rejects out-of-range knobs. New calls it, but callers that
// gate injector construction on Enabled() should call it themselves so a
// nonsense config (negative rate, rate above 1, NaN) fails loudly instead
// of silently meaning "disabled". The comparisons are written so that NaN,
// which compares false with everything, fails them.
func (c Config) Validate() error {
	if !(c.SenseFlipRate >= 0 && c.SenseFlipRate <= 1) {
		return fmt.Errorf("fault: SenseFlipRate %g outside 0..1", c.SenseFlipRate)
	}
	if !(c.ActivationFailRate >= 0 && c.ActivationFailRate <= 1) {
		return fmt.Errorf("fault: ActivationFailRate %g outside 0..1", c.ActivationFailRate)
	}
	if c.WearLimit < 0 {
		return fmt.Errorf("fault: WearLimit %d negative", c.WearLimit)
	}
	if !(c.DriftSeconds >= 0) {
		return fmt.Errorf("fault: DriftSeconds %g negative or NaN", c.DriftSeconds)
	}
	return nil
}

// Injector draws faults for one memory. Not safe for concurrent use, like
// the controller that owns it.
type Injector struct {
	cfg     Config
	scfg    analog.SenseConfig
	cell    nvm.CellParams
	rowBits int
	// pcg drives rng, the stream every transient fault is drawn from.
	// Reset and BeginOp reseed it in place.
	pcg     *rand.PCG
	rng     *rand.Rand
	seq     int64
	margins map[marginKey]float64
	// led receives the injector's ground truth — flips, activation
	// faults, stuck rows, forced bits, row writes — the activity a
	// resilience layer is measured against.
	led *ledger.Ledger
}

type marginKey struct {
	op   sense.Op
	rows int
}

// New builds an injector for the technology. rowBits is the rank-logical
// row width (stuck-at positions are drawn inside it). The injector counts
// what it does into led, which must be non-nil: a System passes the ledger
// of the controller the injector is attached to.
func New(cfg Config, p nvm.Params, scfg analog.SenseConfig, rowBits int, led *ledger.Ledger) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rowBits < 1 {
		return nil, fmt.Errorf("fault: rowBits %d must be positive", rowBits)
	}
	cell := p.Cell
	if cfg.DriftSeconds > 0 {
		drifted, err := analog.DriftedCell(cell, cfg.DriftSeconds)
		if err != nil {
			return nil, err
		}
		cell = drifted
	}
	pcg := rand.NewPCG(uint64(cfg.Seed), 0)
	return &Injector{
		cfg:     cfg,
		scfg:    scfg,
		cell:    cell,
		rowBits: rowBits,
		pcg:     pcg,
		rng:     rand.New(pcg),
		margins: make(map[marginKey]float64),
		led:     led,
	}, nil
}

// Reset restores the injector to its New state: the substream counter
// clears and the PCG rewinds to its (Seed, 0) stream. The margin memo
// survives — it caches pure analog math, so keeping it is invisible to
// behaviour — and so does the ledger, which its owner resets. Pooled
// shard sandboxes reset through here; the batch executor then positions
// the substream explicitly, exactly as it does for a fresh sandbox. The
// rewind reseeds two words in place and allocates nothing.
func (in *Injector) Reset() {
	in.pcg.Seed(uint64(in.cfg.Seed), 0)
	in.seq = 0
}

// BeginOp reseeds the transient-fault stream (sense flips, activation
// faults) to operation k's substream, the PCG stream
// (Seed, splitmix64(k)) for sequence number k. Operations then draw faults
// independently of each other, which is what lets Batch run fault-injected
// shards concurrently and still reproduce the exact flips sequential
// execution would have drawn. Wear draws nothing from the stream: a stuck
// bit hashes its row and event. The reseed is in place, in constant time,
// and allocates nothing.
func (in *Injector) BeginOp() {
	in.seq++
	in.pcg.Seed(uint64(in.cfg.Seed), splitmix64(uint64(in.seq)))
}

// OpSeq returns the per-operation substream sequence number: the number of
// BeginOp calls seen so far.
func (in *Injector) OpSeq() int64 { return in.seq }

// SetOpSeq positions the substream counter so the next BeginOp starts
// operation seq+1. Batch sharding aligns sandbox injectors to the global
// operation order with this.
func (in *Injector) SetOpSeq(seq int64) { in.seq = seq }

// margin returns the worst-case analog margin of one sensing step of op over
// `rows` simultaneously-open rows, memoised (the analog math is pure).
func (in *Injector) margin(op sense.Op, rows int) float64 {
	key := marginKey{op: op, rows: rows}
	if m, ok := in.margins[key]; ok {
		return m
	}
	var m float64
	switch {
	case rows < 2 || op == sense.OpRead || op == sense.OpINV:
		m = analog.ReadMargin(in.scfg, in.cell)
	case op == sense.OpAND, op == sense.OpXOR:
		// XOR's two micro-steps share the AND reference as the tighter one.
		m = analog.ANDMargin(in.scfg, in.cell, rows)
	default:
		m = analog.ORMargin(in.scfg, in.cell, rows)
	}
	in.margins[key] = m
	return m
}

// FlipProb returns the effective per-bit misresolve probability of op over
// `rows` open rows: SenseFlipRate at the margin floor, decaying
// exponentially (one e-fold per offset tolerance of extra margin) as the
// operation gets easier to sense.
func (in *Injector) FlipProb(op sense.Op, rows int) float64 {
	if in.cfg.SenseFlipRate == 0 {
		return 0
	}
	m := in.margin(op, rows)
	tol := in.scfg.OffsetTol
	if m <= tol {
		return in.cfg.SenseFlipRate
	}
	return in.cfg.SenseFlipRate * math.Exp(-(m-tol)/tol)
}

// FlipSensed corrupts the sensed words of one operation in place, flipping
// each of the first `bits` bits independently with FlipProb. It returns how
// many bits were flipped.
func (in *Injector) FlipSensed(op sense.Op, rows, bits int, words []uint64) int {
	p := in.FlipProb(op, rows)
	if p == 0 || bits == 0 {
		return 0
	}
	n := in.poisson(float64(bits) * p)
	for k := 0; k < n; k++ {
		pos := in.rng.IntN(bits)
		words[pos/64] ^= 1 << uint(pos%64)
	}
	in.led.Count[ledger.SenseFlips] += int64(n)
	return n
}

// poisson draws a Poisson variate (Knuth's method; the rates in play keep
// lambda small, and the loop is exact for any lambda).
func (in *Injector) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= in.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ActivationFault reports whether this multi-row activation of `rows` rows
// transiently fails. Single-row activates never do.
func (in *Injector) ActivationFault(rows int) bool {
	if in.cfg.ActivationFailRate == 0 || rows < 2 {
		return false
	}
	p := float64(rows-1) * in.cfg.ActivationFailRate
	if p > 1 {
		p = 1
	}
	if in.rng.Float64() < p {
		in.led.Count[ledger.ActivationFaults]++
		return true
	}
	return false
}

// RecordWriteShared applies one program of the row key names to its wear
// record w, and reports whether it changed the record. The program counts
// in full toward RowWrites, but a row that stores one of `share` replicas
// of a logical row accrues only 1/share of a wear event, so it ages
// share× slower per logical write — the capacity spent on replication is
// simultaneously wear levelling. Crossing a multiple of WearLimit mints
// one new stuck-at bit whose position and polarity derive from a hash of
// (seed, row, event) — the same row always fails the same way,
// independent of operation order. The stuck list is replaced, never
// grown in place, because a borrowed row shares it with its lender.
func (in *Injector) RecordWriteShared(key uint64, w *memarch.Wear, share int) bool {
	in.led.Count[ledger.RowWrites]++
	if in.cfg.WearLimit == 0 {
		return false
	}
	if share > 1 {
		w.Frac++
		if w.Frac < int64(share) {
			return true
		}
		w.Frac = 0
	}
	w.Events++
	if w.Events%in.cfg.WearLimit != 0 {
		return true
	}
	event := w.Events / in.cfg.WearLimit
	h := splitmix64(uint64(in.cfg.Seed) ^ key*0x9e3779b97f4a7c15 ^ uint64(event))
	if len(w.Stuck) == 0 {
		in.led.Count[ledger.StuckRows]++
	}
	w.Stuck = append(w.Stuck[:len(w.Stuck):len(w.Stuck)], memarch.StuckBit{
		Pos: int(h % uint64(in.rowBits)),
		Val: h&(1<<63) != 0,
	})
	return true
}

// CorruptStoredOffset forces a row's stuck-at cells into freshly
// programmed words in place, modelling the cells that no longer accept
// the write. It applies the cells whose positions fall at or beyond
// offsetBits to `row`, rebased so position offsetBits lands on bit 0, and
// returns how many bits were actually overridden (a write agreeing with
// the stuck value is unharmed). The injector is constructed with rowBits
// covering data plus spare cells: the controller corrupts a data row with
// offset 0, and the packed ECC check words with offset = data row bits,
// so the spare columns wear and stick exactly like the cells they
// protect. Positions past the end of row are skipped.
func (in *Injector) CorruptStoredOffset(stuck []memarch.StuckBit, row []uint64, offsetBits int) int {
	forced := 0
	for _, b := range stuck {
		if b.Pos < offsetBits {
			continue
		}
		pos := b.Pos - offsetBits
		wi, mask := pos/64, uint64(1)<<uint(pos%64)
		if wi >= len(row) {
			continue
		}
		was := row[wi]&mask != 0
		if was == b.Val {
			continue
		}
		if b.Val {
			row[wi] |= mask
		} else {
			row[wi] &^= mask
		}
		forced++
	}
	in.led.Count[ledger.StuckBitsForced] += int64(forced)
	return forced
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
