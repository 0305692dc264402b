package ddr

import (
	"fmt"

	"pinatubo/internal/memarch"
)

// BankState is a protocol checker for command sequences: it tracks which
// rows each subarray has open (the LWL latches can hold many), whether a
// RESET armed the latches, and whether data-moving commands are issued
// against open rows. The Pinatubo controller validates every sequence it
// emits against this model, so a lowering bug (sensing a closed row,
// activating without RESET between batches, forgetting the precharge)
// fails loudly rather than silently producing an optimistic latency.
//
// The state lives in slices it keeps across a precharge, so
// a checker reused for one sequence after another allocates nothing once
// it has seen the largest.
type BankState struct {
	// subs holds every subarray a command has named since the last
	// precharge, closed or not; a sequence names few, so a linear
	// search finds one.
	subs []subState
}

// subState is one subarray's row state.
type subState struct {
	key [4]int
	// armed marks latches RESET since the last batch, which may
	// accumulate activations.
	armed bool
	// n counts the open rows; open is their bitset, indexed by row.
	n    int
	open []uint64
}

// NewBankState returns an all-precharged state.
func NewBankState() *BankState { return &BankState{} }

func subKey(a memarch.RowAddr) [4]int {
	return [4]int{a.Channel, a.Rank, a.Bank, a.Subarray}
}

// sub returns the state of the subarray with key k, adding it closed and
// disarmed if no command named it since the last precharge. An added
// entry reuses the bitset a precharge left behind.
func (s *BankState) sub(k [4]int) *subState {
	for i := range s.subs {
		if s.subs[i].key == k {
			return &s.subs[i]
		}
	}
	if len(s.subs) == cap(s.subs) {
		s.subs = append(s.subs, subState{})
	} else {
		s.subs = s.subs[:len(s.subs)+1]
	}
	st := &s.subs[len(s.subs)-1]
	st.key, st.armed, st.n = k, false, 0
	clear(st.open)
	return st
}

// isOpen reports whether row is open.
func (st *subState) isOpen(row int) bool {
	w := row / 64
	return w < len(st.open) && st.open[w]&(1<<(row%64)) != 0
}

// addOpen opens row, growing the bitset to cover it.
func (st *subState) addOpen(row int) {
	w := row / 64
	for len(st.open) <= w {
		st.open = append(st.open, 0)
	}
	st.open[w] |= 1 << (row % 64)
	st.n++
}

// OpenRows returns how many rows the subarray containing a has open.
func (s *BankState) OpenRows(a memarch.RowAddr) int { return s.sub(subKey(a)).n }

// AnyOpen reports whether any subarray has open rows.
func (s *BankState) AnyOpen() bool {
	for i := range s.subs {
		if s.subs[i].n > 0 {
			return true
		}
	}
	return false
}

// reset returns the state to all-precharged, keeping its storage.
func (s *BankState) reset() { s.subs = s.subs[:0] }

// Apply advances the state by one command, returning an error on protocol
// violations.
func (s *BankState) Apply(c Cmd) error {
	st := s.sub(subKey(c.Addr))
	switch c.Kind {
	case CmdLWLReset:
		// RESET closes everything in the subarray and arms the latches.
		clear(st.open)
		st.n, st.armed = 0, true

	case CmdAct, CmdActTRA:
		// A triple-row activation opens the compute group in one command;
		// the checker tracks it by the group's addressed first row — like
		// CmdAct, it requires the subarray precharged.
		if st.n > 0 {
			return fmt.Errorf("ddr: %v %v with %d row(s) already open and no RESET",
				c.Kind, c.Addr, st.n)
		}
		if c.Addr.Row < 0 {
			return fmt.Errorf("ddr: %v %v names a negative row", c.Kind, c.Addr)
		}
		st.addOpen(c.Addr.Row)

	case CmdActLatch:
		if !st.armed {
			return fmt.Errorf("ddr: ACT-LATCH %v without a preceding LWL-RESET", c.Addr)
		}
		if st.n == 0 {
			return fmt.Errorf("ddr: ACT-LATCH %v before the first ACT", c.Addr)
		}
		if c.Addr.Row < 0 {
			return fmt.Errorf("ddr: %v %v names a negative row", c.Kind, c.Addr)
		}
		if st.isOpen(c.Addr.Row) {
			return fmt.Errorf("ddr: ACT-LATCH %v latched the same row twice", c.Addr)
		}
		st.addOpen(c.Addr.Row)

	case CmdSense, CmdWBack, CmdGDLMove:
		// These operate on the currently open rows of the addressed
		// subarray — except moves into a *different* subarray's write
		// drivers, which target buffers rather than open rows; those are
		// permitted against closed subarrays.
		if c.Kind == CmdSense && st.n == 0 {
			return fmt.Errorf("ddr: SENSE %v with no open rows", c.Addr)
		}

	case CmdRd:
		// Bursting to the host requires sensed data in the SAs; the
		// addressed subarray may legitimately be the buffer locus, so no
		// open-row requirement is enforced here.

	case CmdWr, CmdIOMove, CmdMRS:
		// Buffer/host-side commands: no row-state requirement.

	case CmdPre:
		// Precharge closes every open row (the controller's sequences end
		// with a global precharge) and disarms the latches.
		s.reset()

	default:
		return fmt.Errorf("ddr: unknown command kind %d", int(c.Kind))
	}
	return nil
}

// Validate resets s, replays a full command sequence against it and
// additionally requires that the sequence leaves the memory precharged
// (no dangling open rows). A checker reused across sequences this way
// allocates nothing on a valid sequence once its storage has grown.
func (s *BankState) Validate(cmds []Cmd) error {
	s.reset()
	for i, c := range cmds {
		if err := s.Apply(c); err != nil {
			return fmt.Errorf("command %d (%v): %w", i, c.Kind, err)
		}
	}
	if s.AnyOpen() {
		return fmt.Errorf("ddr: sequence ends with open rows (missing PRE)")
	}
	return nil
}
