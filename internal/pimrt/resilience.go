package pimrt

// This file is the runtime half of the verify-and-retry resilience layer.
// Every hardware request the scheduler issues can be verified against the
// controller's digital reference and, on failure, walked down a degradation
// ladder that trades speed for certainty but never returns a wrong answer:
//
//	1. retry      — reissue the same request (transient activation faults,
//	                unlucky sense flips);
//	2. depth-split — re-execute a failing intra-subarray multi-row OR as a
//	                chain of shallower ORs whose analog margins are
//	                exponentially wider (each link is itself resilient);
//	3. inter-digital — force the serial digital datapath, which senses one
//	                row at a time at the full read margin;
//	4. host-cpu   — burst the operands over the DDR bus, compute on the
//	                host, write the result back.
//
// Destination rows whose cells no longer hold what the write drivers
// deliver (stuck-at wear) are detected by the stored/claimed comparison and
// retired through the scheduler's allocator (Allocator.Remap), so the
// ladder terminates even on damaged silicon.

import (
	"errors"
	"fmt"
	"slices"

	"pinatubo/internal/backend"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/ledger"
	"pinatubo/internal/memarch"
	"pinatubo/internal/sense"
)

// ErrResilienceExhausted is returned when every rung of the degradation
// ladder failed to produce a verified result. The caller gets an error,
// never silently wrong bits.
var ErrResilienceExhausted = errors.New("pimrt: resilience ladder exhausted without a verified result")

// ErrUncorrectable marks a detected-uncorrectable (double-bit class) ECC
// syndrome. It is wrapped alongside ErrResilienceExhausted when the in-array
// SECDED path escalated and the subsequent degradation ladder also failed,
// so callers can distinguish "ECC gave up" from plain ladder exhaustion.
var ErrUncorrectable = errors.New("pimrt: detected-uncorrectable ECC syndrome")

// maxRetries bounds the re-executions attempted on each rung of the
// ladder before it degrades to the next one. Verified host reads and
// writes retry as often.
const maxRetries = 3

// minDepth floors the exponential depth reduction of rung 2: a 2-row OR is
// the shallowest the hardware has.
const minDepth = 2

// Reset empties the last result (keeping only its program buffer's
// capacity), so a pooled shard sandbox does not keep its last op's
// commands and result words alive.
func (s *Scheduler) Reset() { s.begin(memarch.RowAddr{}) }

// request executes one hardware request (op over srcs into *target). With
// resilience off it is a plain controller call. With resilience on, the
// result is verified and the degradation ladder walked until a verified
// result lands in *target (possibly remapped); the verified words are
// returned. Those are the golden reference, in a buffer the scheduler
// owns (golden) that controller executions never touch and that stays
// valid until the next Execute; with resilience off the controller's
// words come back, valid until its next execution. restore must hold the
// known-good contents of *target when the target is also an operand (a
// chained accumulator), so failed attempts can rebuild it; nil means the
// target is write-only for this request. It must not be a controller
// buffer: the attempts it guards execute before it is read.
func (s *Scheduler) request(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore []uint64, res *ScheduleResult) ([]uint64, error) {
	if !s.Verify {
		r, err := s.Ctl.Execute(op, srcs, bits, target)
		if err != nil {
			return nil, err
		}
		res.Program.Emit(r.Instr())
		return r.Words, nil
	}
	golden, err := s.golden(op, srcs, bits, restore)
	if err != nil {
		return nil, err
	}
	// A depth split below re-enters request; its links take the next
	// level's buffers, so they cannot overwrite this request's golden.
	s.level++
	defer func() { s.level-- }()
	// dirty tracks whether *target may hold garbage from a failed attempt
	// and therefore needs restoring before a self-referencing re-execution.
	dirty := false

	if s.Ctl.ECCCodec() != nil {
		// Rung 0 — in-array SECDED: syndrome decode on the program-verify
		// sense, single-bit repair in place. Only a detected-uncorrectable
		// syndrome falls through to the read-back ladder.
		ok, err := s.eccAttempt(op, srcs, bits, target, restore, golden, res, &dirty)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := s.syncReplicas(*target, bits, res); err != nil {
				return nil, err
			}
			return golden, nil
		}
		ok, err = s.ladder(op, srcs, bits, target, restore, golden, res, &dirty)
		if err != nil {
			return nil, err
		}
		if ok {
			// The ladder programmed *target behind the spare columns' backs;
			// regenerate the check bits at the buffer encoder so later reads
			// and chained ops decode against fresh state (nonlinear path —
			// the result sits in a buffer or on the host, not on spare SAs).
			cost, err := s.Ctl.ECCProgram(*target, golden, bits, sense.OpOR, 0)
			if err != nil {
				return nil, err
			}
			res.Program.Emit(cost.Instr(*target))
			if err := s.syncReplicas(*target, bits, res); err != nil {
				return nil, err
			}
			return golden, nil
		}
		return nil, fmt.Errorf("pimrt: %v over %d rows into %v: %w (%w)",
			op, len(srcs), *target, ErrResilienceExhausted, ErrUncorrectable)
	}

	ok, err := s.ladder(op, srcs, bits, target, restore, golden, res, &dirty)
	if err != nil {
		return nil, err
	}
	if ok {
		if err := s.syncReplicas(*target, bits, res); err != nil {
			return nil, err
		}
		return golden, nil
	}
	return nil, fmt.Errorf("pimrt: %v over %d rows into %v: %w", op, len(srcs), *target, ErrResilienceExhausted)
}

// golden computes a request's reference result into a buffer the
// scheduler owns. Each request nesting level — request → ladder →
// chainedOR → request — has two. A request takes the second only when
// its restore is the first: chainedOR hands each link the previous link's
// golden as restore, which a failed attempt may still have to write back
// after the new reference is computed. The buffers stay valid until the
// next Execute.
//
// A chained link's first operand is its accumulator row, which a failed
// attempt of the enclosing request may have overwritten: its reference is
// restore, the accumulator's known-good words, ORed with srcs[1:], never
// the row as stored.
func (s *Scheduler) golden(op sense.Op, srcs []memarch.RowAddr, bits int, restore []uint64) ([]uint64, error) {
	bufs := s.levelGoldens()
	i := 0
	if len(restore) > 0 && len(bufs[0]) > 0 && &restore[0] == &bufs[0][0] {
		i = 1
	}
	if restore == nil {
		g, err := s.Ctl.Golden(bufs[i], op, srcs, bits)
		if err != nil {
			return nil, err
		}
		bufs[i] = g
		return g, nil
	}
	g, err := s.Ctl.Golden(bufs[i], op, srcs[1:], bits)
	if err != nil {
		return nil, err
	}
	for j := range g {
		g[j] |= restore[j]
	}
	bufs[i] = g
	return g, nil
}

// levelGoldens returns the current nesting level's two reference buffers.
func (s *Scheduler) levelGoldens() *[2][]uint64 {
	for len(s.goldens) <= s.level {
		s.goldens = append(s.goldens, [2][]uint64{})
	}
	return &s.goldens[s.level]
}

// ladder walks the read-back degradation ladder (rungs 1-4) until a
// verified result lands in *target. It reports whether one did.
func (s *Scheduler) ladder(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, dirty *bool) (bool, error) {
	// Rung 1 — native execution with bounded retries.
	ok, err := s.attempt(op, srcs, bits, target, restore, golden, res, false, dirty)
	if err != nil || ok {
		return ok, err
	}
	// Rung 2 — exponential depth reduction: a failing intra-subarray
	// multi-row OR re-executes as a chain of shallower ORs whose sensing
	// margins are wider. Every link is itself a fully resilient request
	// (its own retries, further splits, inter and host rungs).
	if op == sense.OpOR && len(srcs) > minDepth && memarch.SameSubarray(srcs...) {
		// A chained request's first operand is its own accumulator, which
		// restore holds: the split's links carry it at their head instead.
		rows := srcs
		if restore != nil {
			rows = srcs[1:]
		}
		for depth := len(srcs) / 2; depth >= minDepth; depth /= 2 {
			s.Ctl.Ledger().Count[ledger.DepthReductions]++
			_, err := s.chainedOR(rows, bits, target, restore, depth, res)
			if err == nil {
				return true, nil
			}
			if !errors.Is(err, ErrResilienceExhausted) {
				return false, err
			}
			// A link exhausted its own ladder and may have left garbage in
			// *target; shallower links, then the outer rungs, have a go.
			*dirty = true
		}
	}
	// Rung 3 — the serial digital datapath: single-row sensing only, no
	// multi-row margin to lose.
	s.Ctl.Ledger().Count[ledger.InterFallbacks]++
	ok, err = s.attempt(op, srcs, bits, target, restore, golden, res, true, dirty)
	if err != nil || ok {
		return ok, err
	}
	// Rung 4 — the host CPU.
	s.Ctl.Ledger().Count[ledger.HostFallbacks]++
	return s.hostAttempt(srcs, bits, target, golden, res)
}

// eccAttempt is the SECDED rung: execute once (reissuing transient
// activation faults within the retry budget), regenerate the destination's
// spare-column check bits, then decode on the program-verify sense.
// Single-bit errors are repaired in place and the request completes without
// ever reading the row back; anything SECDED cannot fix escalates.
func (s *Scheduler) eccAttempt(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, dirty *bool) (bool, error) {
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			s.noteRetry()
		}
		if *dirty && restore != nil {
			if err := s.hostWrite(*target, restore, bits, res); err != nil {
				return false, err
			}
		}
		r, err := s.nativeExec(op, srcs, bits, target)
		if err != nil {
			if errors.Is(err, backend.ErrActivationFault) {
				continue // nothing was sensed or written; reissue
			}
			return false, err
		}
		res.Program.Emit(r.Instr())
		*dirty = true
		cost, err := s.Ctl.ECCProgram(*target, golden, bits, op, len(srcs))
		if err != nil {
			return false, err
		}
		res.Program.Emit(cost.Instr(*target))
		v, err := s.Ctl.CorrectOrEscalate(*target, bits, golden)
		if err != nil {
			return false, err
		}
		res.Program.Emit(v.Instr(*target))
		// A clean or repaired row completes the request. A
		// detected-uncorrectable syndrome (or a repair the cells would not
		// hold) gets no blind retry: the ladder's read-back rungs take over.
		return v.OK, nil
	}
	return false, nil
}

// attempt is one rung of bounded retries: execute (natively or over the
// forced digital path), verify against golden, retire the destination on
// evidence of cell damage. It reports whether a verified result landed.
func (s *Scheduler) attempt(op sense.Op, srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, restore, golden []uint64, res *ScheduleResult, digital bool, dirty *bool) (bool, error) {
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			s.noteRetry()
		}
		if *dirty && restore != nil {
			// The accumulator operand was clobbered by a failed attempt;
			// rebuild it from the host-side checkpoint. If the row's cells
			// are stuck the restore is corrupted too — the next verify
			// attributes that to a write fault and retires the row.
			if err := s.hostWrite(*target, restore, bits, res); err != nil {
				return false, err
			}
		}
		exec := s.nativeExec
		if digital {
			exec = s.Ctl.ExecuteDigital
		}
		r, err := exec(op, srcs, bits, target)
		if err != nil {
			if errors.Is(err, backend.ErrActivationFault) {
				continue // nothing was sensed or written; reissue
			}
			return false, err
		}
		res.Program.Emit(r.Instr())
		*dirty = true
		v, err := s.Ctl.VerifyAgainst(len(srcs), bits, *target, golden, r.Words)
		if err != nil {
			return false, err
		}
		res.Program.Emit(v.Instr(*target))
		if v.OK {
			return true, nil
		}
		if v.WriteFault {
			s.retireTarget(srcs, target)
		}
	}
	return false, nil
}

// hostAttempt is the last rung: read every operand over the DDR bus,
// compute on the host, write the verified result back — never wrong, never
// fast (exactly the bus traffic Pinatubo exists to avoid). A verified host
// Write is this rung over no operands.
func (s *Scheduler) hostAttempt(srcs []memarch.RowAddr, bits int, target *memarch.RowAddr, golden []uint64, res *ScheduleResult) (bool, error) {
	for _, a := range srcs {
		r, err := s.Ctl.ReadRow(a, bits)
		if err != nil {
			return false, err
		}
		res.Program.Emit(r.Instr())
	}
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			s.noteRetry()
		}
		if err := s.hostWrite(*target, golden, bits, res); err != nil {
			return false, err
		}
		v, err := s.Ctl.VerifyAgainst(0, bits, *target, golden, golden)
		if err != nil {
			return false, err
		}
		res.Program.Emit(v.Instr(*target))
		if v.OK {
			return true, nil
		}
		if v.WriteFault {
			s.retireTarget(srcs, target)
		}
	}
	return false, nil
}

// noteRetry counts one re-execution.
func (s *Scheduler) noteRetry() { s.Ctl.Ledger().Count[ledger.Retries]++ }

// hostWrite programs a row from the host, charging the bus transfer.
func (s *Scheduler) hostWrite(addr memarch.RowAddr, words []uint64, bits int, res *ScheduleResult) error {
	r, err := s.Ctl.WriteRowFromHost(addr, words, bits)
	if err != nil {
		return err
	}
	res.Program.Emit(r.Instr())
	return nil
}

// Write programs words, zero-filled to bits, into *target from the host.
// With resilience off it is one host write. With it on, the stored row is
// verified against the data: under read-back the write is the ladder's
// host rung over no operands, whose reference is the data itself; under
// SECDED the check bits the write stored are decoded (writeECC). A row
// that will not hold the data is retired through Alloc, which moves
// *target, because data rows must hold true data or every reference built
// on them is garbage. The result is the scheduler's, as Execute's is.
func (s *Scheduler) Write(target *memarch.RowAddr, words []uint64, bits int) (*ScheduleResult, error) {
	res := s.begin(*target)
	var err error
	switch {
	case !s.Verify:
		err = s.hostWrite(*target, words, bits, res)
	case s.Ctl.ECCCodec() != nil:
		err = s.writeECC(target, s.hostGolden(words, bits), bits, res)
	default:
		var ok bool
		ok, err = s.hostAttempt(nil, bits, target, s.hostGolden(words, bits), res)
		if err == nil && !ok {
			err = fmt.Errorf("pimrt: writing row %v: %w", *target, ErrResilienceExhausted)
		}
	}
	if err != nil {
		return nil, err
	}
	res.FinalDst = *target
	res.finalize()
	return res, nil
}

// hostGolden copies a host write's words, zero-filled to bits, into the
// level's first reference buffer. Overlong words pass through, for the
// controller to refuse.
func (s *Scheduler) hostGolden(words []uint64, bits int) []uint64 {
	bufs := s.levelGoldens()
	g := append(bufs[0][:0], words...)
	if n, w := len(g), bitvec.WordsFor(bits); n < w {
		g = slices.Grow(g, w-n)[:w]
		clear(g[n:])
	}
	bufs[0] = g
	return g
}

// writeECC writes golden into *target and verifies it through the row's
// SECDED check bits: the syndrome decode rides the final program-verify
// sense and single stuck bits are repaired in place. An uncorrectable
// syndrome retires the row before the rewrite, because host writes fail
// through worn cells, not sense flips, and rewriting the same row would
// burn it further.
func (s *Scheduler) writeECC(target *memarch.RowAddr, golden []uint64, bits int, res *ScheduleResult) error {
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			s.noteRetry()
			s.retireTarget(nil, target)
		}
		if err := s.hostWrite(*target, golden, bits, res); err != nil {
			return err
		}
		v, err := s.Ctl.CorrectOrEscalate(*target, bits, golden)
		if err != nil {
			return err
		}
		res.Program.Emit(v.Instr(*target))
		if v.OK {
			return nil
		}
	}
	return fmt.Errorf("pimrt: writing row %v: %w (%w)", *target, ErrResilienceExhausted, ErrUncorrectable)
}

// Read bursts the row at addr to the host. The result's Words are the
// sensed controller words, valid until the controller's next execution.
// With resilience on they are checked against the row's true contents,
// read in place, and the read is reissued on a flip; under SECDED they are
// corrected through the row's check bits first, so the compare only
// catches the uncorrectable residue. Plain reads run at the full read
// margin, so this almost never loops, but a wrong word never escapes.
func (s *Scheduler) Read(addr memarch.RowAddr, bits int) (*ScheduleResult, error) {
	res := s.begin(addr)
	led := &s.Ctl.Ledger().Count
	for try := 0; ; try++ {
		if try > 0 {
			s.noteRetry()
		}
		r, err := s.Ctl.ReadRow(addr, bits)
		if err != nil {
			return nil, err
		}
		res.Program.Emit(r.Instr())
		res.Words = r.Words
		if !s.Verify {
			break
		}
		if s.Ctl.ECCCodec() != nil {
			v, err := s.Ctl.ECCCorrectRead(addr, bits, r.Words)
			if err != nil {
				return nil, err
			}
			res.Program.Emit(v.Instr(addr))
		}
		// A read's reference is the stored row itself; the compare masks
		// the bits past bits. It is the scheduler's own compare, not a
		// controller pass, so it counts its verify and wrong bits here.
		stored := s.Ctl.Memory().PeekRow(addr)
		led[ledger.Verifies]++
		if bitvec.EqualWords(r.Words, stored, bits) {
			break
		}
		led[ledger.BitsCorrected] += int64(bitvec.DiffCount(r.Words, stored, bits))
		if try == maxRetries {
			return nil, fmt.Errorf("pimrt: reading row %v: %w", addr, ErrResilienceExhausted)
		}
	}
	res.finalize()
	return res, nil
}

// retireTarget swaps a damaged destination row for a fresh one through
// the allocator, patching any self-reference in srcs. With no allocator —
// or no spare rows left — the ladder keeps going with the damaged row and
// fails loudly at the end rather than returning wrong bits.
func (s *Scheduler) retireTarget(srcs []memarch.RowAddr, target *memarch.RowAddr) {
	if s.Alloc == nil {
		return
	}
	fresh, err := s.Alloc.Remap(*target)
	if err != nil {
		return
	}
	s.Ctl.Ledger().Count[ledger.RowsRetired]++
	old := *target
	*target = fresh
	for i := range srcs {
		if srcs[i] == old {
			srcs[i] = fresh
		}
	}
}
