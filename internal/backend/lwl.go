package backend

import (
	"fmt"
	"math/bits"
)

// LWL models the modified local-wordline driver of one subarray (Fig. 7):
// each driver gains a feedback transistor that latches its wordline high
// once its address is decoded, and a RESET transistor that forces every
// driver's input to ground. The controller therefore opens n rows by
// pulsing RESET and then issuing the n row addresses one command slot at a
// time; all selected wordlines stay at VDD until the next RESET.
type LWL struct {
	rowsPerSubarray int
	armed           bool // a RESET has been issued since the last batch
	// latched is one bit per wordline, high while latched; n counts them.
	latched []uint64
	n       int
}

// NewLWL builds the driver model for a subarray with the given row count.
func NewLWL(rowsPerSubarray int) *LWL {
	return &LWL{
		rowsPerSubarray: rowsPerSubarray,
		latched:         make([]uint64, (rowsPerSubarray+63)/64),
	}
}

// Reset pulses the RESET line: all latches clear and the driver is armed
// for a new multi-row activation.
func (l *LWL) Reset() {
	l.armed = true
	clear(l.latched)
	l.n = 0
}

// Latch decodes one row address; the selected wordline latches high. It is
// a protocol error to latch before a RESET (stale wordlines could still be
// open) or to latch the same row twice in one batch (the paper's ops are
// over distinct rows).
func (l *LWL) Latch(row int) error {
	if !l.armed {
		return fmt.Errorf("pim: LWL latch of row %d without a preceding RESET", row)
	}
	if row < 0 || row >= l.rowsPerSubarray {
		return fmt.Errorf("pim: LWL row %d out of range [0,%d)", row, l.rowsPerSubarray)
	}
	bit := uint64(1) << (row % 64)
	if l.latched[row/64]&bit != 0 {
		return fmt.Errorf("pim: LWL row %d latched twice in one batch", row)
	}
	l.latched[row/64] |= bit
	l.n++
	return nil
}

// Open returns the currently latched (open) rows in ascending order.
func (l *LWL) Open() []int {
	rows := make([]int, 0, l.n)
	for w, word := range l.latched {
		for ; word != 0; word &= word - 1 {
			rows = append(rows, w*64+bits.TrailingZeros64(word))
		}
	}
	return rows
}

// OpenCount returns how many wordlines are currently high.
func (l *LWL) OpenCount() int { return l.n }
