// Package sense is the word-level model of Pinatubo's modified sense
// amplifier array. It sits between the analog CSA model and the memory
// architecture: the controller selects an operation (which, physically,
// selects a reference circuit in every SA), the wordline drivers open the
// operand rows, and the SA array resolves one output bit per bitline.
//
// The package enforces the paper's operand-count rules per technology
// (n-row OR up to the sensing-margin depth, AND/XOR exactly 2 rows, INV 1
// row) and, when analog checking is enabled, cross-validates a sample of
// bit positions through the analog current-comparison path on every
// operation, so a regression in reference placement shows up in ordinary
// use, not only in the analog unit tests.
package sense

import (
	"fmt"
	"math/rand/v2"

	"pinatubo/internal/analog"
	"pinatubo/internal/nvm"
)

// Op is a bulk bitwise operation code. It doubles as the SA mode selector:
// the memory controller writes it to the mode register, which switches the
// SA's reference circuit (or, for XOR/INV, its add-on output path).
type Op int

const (
	OpRead Op = iota // normal read (single row)
	OpAND            // 2-row AND via shifted reference
	OpOR             // n-row OR via shifted reference
	OpXOR            // 2-row XOR via hold capacitor, two micro-steps
	OpINV            // 1-row inversion from the latch differential
)

// String returns the mnemonic used in the paper.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpAND:
		return "AND"
	case OpOR:
		return "OR"
	case OpXOR:
		return "XOR"
	case OpINV:
		return "INV"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// SenseSteps returns how many sequential SA sensing steps the operation
// needs per column group: XOR takes two micro-steps, everything else one.
func (o Op) SenseSteps() int {
	if o == OpXOR {
		return analog.XORSteps
	}
	return 1
}

// OperandError reports an operand-count rule violation.
type OperandError struct {
	Op   Op
	Tech nvm.Tech
	N    int // offending operand count
	Max  int // maximum allowed (0 if the op has a fixed count instead)
	Want int // required exact count (0 if a range applies)
}

func (e *OperandError) Error() string {
	if e.Want != 0 {
		return fmt.Sprintf("sense: %s on %s requires exactly %d operand row(s), got %d",
			e.Op, e.Tech, e.Want, e.N)
	}
	return fmt.Sprintf("sense: %s on %s supports 2..%d operand rows, got %d",
		e.Op, e.Tech, e.Max, e.N)
}

// analogCheckSeed seeds the deterministic analog-check sampling stream:
// a PCG seeded (analogCheckSeed, 0).
const analogCheckSeed = 0x9144

// Array models the sense amplifiers of one MAT (or, because chips and MATs
// operate in lock step, of the whole rank slice being sensed).
type Array struct {
	params nvm.Params
	cfg    analog.SenseConfig
	// checkEvery > 0 enables analog cross-checking of that many sampled
	// bit positions per ComputeWordsInto call.
	checkEvery int
	// pcg drives rng, the stream that picks the bit positions the analog
	// cross-check re-resolves. It only chooses what to check and never
	// changes a result. A PCG reseeds in constant time (Reset).
	pcg *rand.PCG
	rng *rand.Rand
	// cells is the analog-check sample scratch, reused so steady-state
	// operations allocate nothing for the cross-check.
	cells []bool
	// maxOR memoises the OR depth search: cfg and params are immutable
	// after NewArray, so the margin sweep is done once, not per operation
	// (it was the hottest non-data work on the cached execution path).
	maxOR int
}

// NewArray builds an SA array for the technology. Analog cross-checking
// samples checkBits bit positions per operation; 0 disables it (e.g. in
// throughput benchmarks). There is no default here: the System passes its
// Config.AnalogCheckBits, 8 in DefaultConfig.
func NewArray(p nvm.Params, cfg analog.SenseConfig, checkBits int) (*Array, error) {
	if !p.Tech.Resistive() {
		return nil, analog.ErrNotResistive
	}
	depth, err := analog.MaxORRows(cfg, p, p.MaxOpenRows)
	if err != nil {
		// Unreachable: only non-resistive techs error, rejected above.
		return nil, err
	}
	if depth > p.MaxOpenRows {
		depth = p.MaxOpenRows
	}
	pcg := rand.NewPCG(analogCheckSeed, 0)
	return &Array{
		params:     p,
		cfg:        cfg,
		checkEvery: checkBits,
		pcg:        pcg,
		rng:        rand.New(pcg),
		maxOR:      depth,
	}, nil
}

// MaxORRows returns the operand-row limit for OR on this array: the smaller
// of the architectural cap and the analog sensing-margin depth, memoised at
// construction (cfg and params never change afterwards).
func (a *Array) MaxORRows() int { return a.maxOR }

// ValidateOperands checks the operand-row count rules for op.
func (a *Array) ValidateOperands(op Op, n int) error {
	switch op {
	case OpRead, OpINV:
		if n != 1 {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Want: 1}
		}
	case OpAND, OpXOR:
		if n != 2 {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Want: 2}
		}
	case OpOR:
		if max := a.MaxORRows(); n < 2 || n > max {
			return &OperandError{Op: op, Tech: a.params.Tech, N: n, Max: max}
		}
	default:
		return fmt.Errorf("sense: unknown op %d", int(op))
	}
	return nil
}

// Reset restores the array's deterministic analog-check sampling stream
// to its NewArray state (pooled shard sandboxes reset through here). It
// reseeds the PCG in place: two words of state, so a reset costs
// constant time and allocates nothing.
func (a *Array) Reset() {
	a.pcg.Seed(analogCheckSeed, 0)
}

// ComputeWordsInto resolves the operation over word-parallel operand rows
// into dst. Every row must have the same length, and dst must hold exactly
// len(rows[0]) words. The word math is the functional model; if analog
// checking is enabled, sampled bit positions are re-resolved through the
// analog current comparison and any disagreement panics (it would be a
// modelling bug, never a data error). A steady-state call allocates
// nothing (the analog cross-check included): this is the hot path every
// intra-subarray execution and the voted sensing loop run on.
func (a *Array) ComputeWordsInto(dst []uint64, op Op, rows [][]uint64) error {
	if err := a.ValidateOperands(op, len(rows)); err != nil {
		return err
	}
	width := len(rows[0])
	for i, r := range rows[1:] {
		if len(r) != width {
			return fmt.Errorf("sense: row %d has %d words, row 0 has %d", i+1, len(r), width)
		}
	}
	if len(dst) != width {
		return fmt.Errorf("sense: destination has %d words, rows have %d", len(dst), width)
	}
	Combine(dst, op, rows)
	if a.checkEvery > 0 && width > 0 {
		a.analogCheck(op, rows, dst)
	}
	return nil
}

// Combine writes op over the operand rows into dst: the word math of every
// functional model of a bulk bitwise operation — the SA array above, the
// DRAM backend's TRA synthesis and the controller's serial digital
// datapath. Every row must hold at least len(dst) words. The caller has
// validated the operand count: READ and INV take rows[0], AND and XOR
// rows[0] and rows[1], OR folds every row. Panics on an op outside the Op
// set, which only an unvalidated caller can pass.
func Combine(dst []uint64, op Op, rows [][]uint64) {
	// Every operand is resliced to len(dst) so the loops below run
	// without per-word bounds checks.
	n := len(dst)
	switch op {
	case OpRead:
		copy(dst, rows[0][:n])
	case OpINV:
		for i, w := range rows[0][:n] {
			dst[i] = ^w
		}
	case OpAND:
		x, y := rows[0][:n], rows[1][:n]
		for i := range dst {
			dst[i] = x[i] & y[i]
		}
	case OpXOR:
		x, y := rows[0][:n], rows[1][:n]
		for i := range dst {
			dst[i] = x[i] ^ y[i]
		}
	case OpOR:
		orRows(dst, rows)
	default:
		panic(fmt.Sprintf("sense: Combine of unvalidated op %d", int(op)))
	}
}

// orRows streams the operand rows into out: rows[0] is copied, then the
// rest are folded four rows per pass and the remainder one row per pass.
// Each pass walks contiguous memory with its operand slices held in
// registers, instead of reloading and bounds-checking every operand's
// slice header once per word.
func orRows(out []uint64, rows [][]uint64) {
	copy(out, rows[0])
	rest := rows[1:]
	for ; len(rest) >= 4; rest = rest[4:] {
		a, b, c, d := rest[0][:len(out)], rest[1][:len(out)], rest[2][:len(out)], rest[3][:len(out)]
		for i := range out {
			out[i] |= a[i] | b[i] | c[i] | d[i]
		}
	}
	for _, r := range rest {
		r = r[:len(out)]
		for i := range out {
			out[i] |= r[i]
		}
	}
}

// analogCheck re-resolves sampled bit positions through the analog path.
// Panics if the analog and digital results diverge — the cross-model
// consistency assertion this sampling exists to enforce.
func (a *Array) analogCheck(op Op, rows [][]uint64, out []uint64) {
	totalBits := len(out) * 64
	if cap(a.cells) < len(rows) {
		a.cells = make([]bool, len(rows))
	}
	for k := 0; k < a.checkEvery; k++ {
		pos := a.rng.IntN(totalBits)
		wi, bi := pos/64, uint(pos%64)
		cells := a.cells[:len(rows)]
		for r := range rows {
			cells[r] = rows[r][wi]&(1<<bi) != 0
		}
		want := out[wi]&(1<<bi) != 0
		var got bool
		switch op {
		case OpRead:
			got = analog.SenseRead(a.cfg, a.params.Cell, cells[0])
		case OpINV:
			got = analog.SenseINV(a.cfg, a.params.Cell, cells[0])
		case OpAND:
			got = analog.SenseAND(a.cfg, a.params.Cell, cells)
		case OpXOR:
			got = analog.SenseXOR(a.cfg, a.params.Cell, cells[0], cells[1])
		case OpOR:
			got = analog.SenseOR(a.cfg, a.params.Cell, cells)
		}
		if got != want {
			panic(fmt.Sprintf(
				"sense: analog/functional divergence: %s bit %d: analog %v, functional %v",
				op, pos, got, want))
		}
	}
}

// Params returns the technology parameters of the array.
func (a *Array) Params() nvm.Params { return a.params }
