// Majority voting across replicated sensing passes. The controller senses
// the same logical operation once per replica set and hands the R word
// vectors here; the vote resolves each bit to the value at least ⌈R/2⌉
// passes agreed on. The implementation is a carry-save population count in
// word-parallel form — three counter planes cover R ≤ 7 — so voting costs
// a handful of boolean word ops per 64 bits, mirroring how cheap the
// digital vote gate is next to the analog sense it protects.
package sense

import (
	"fmt"
	"math/bits"

	"pinatubo/internal/analog"
)

// MajorityWordsInto votes bitwise across the replica outputs into dst and
// returns the number of bit positions (within the first `bitCount` bits)
// where the replicas disagreed — every disagreeing position is a sensing
// error that the vote either fixed or, for a lost majority, kept.
// len(outs) must be a valid replication factor (odd, 3..7), all replicas
// must have equal width covering bitCount, and dst must hold exactly that
// width. A steady-state call allocates nothing.
func MajorityWordsInto(dst []uint64, outs [][]uint64, bitCount int) (int, error) {
	r := len(outs)
	if !analog.ValidReplication(r) || r == 0 {
		return 0, fmt.Errorf("sense: majority vote needs an odd replica count in 3..7, got %d", r)
	}
	width := len(outs[0])
	for i, o := range outs[1:] {
		if len(o) != width {
			return 0, fmt.Errorf("sense: replica %d has %d words, replica 0 has %d", i+1, len(o), width)
		}
	}
	if bitCount < 0 || bitCount > width*64 {
		return 0, fmt.Errorf("sense: bit count %d outside replica width %d bits", bitCount, width*64)
	}
	if len(dst) != width {
		return 0, fmt.Errorf("sense: destination has %d words, replicas have %d", len(dst), width)
	}
	maj := dst
	need := r/2 + 1
	disagree := 0
	for i := 0; i < width; i++ {
		// Carry-save counters: c2 c1 c0 hold the per-bit ones count (0..7).
		var c0, c1, c2 uint64
		all := ^uint64(0)
		any := uint64(0)
		for _, o := range outs {
			w := o[i]
			all &= w
			any |= w
			carry := c0 & w
			c0 ^= w
			w = carry
			carry = c1 & w
			c1 ^= w
			c2 |= carry
		}
		var m uint64
		switch need {
		case 2: // r == 3: count >= 2
			m = c2 | c1
		case 3: // r == 5: count >= 3
			m = c2 | (c1 & c0)
		case 4: // r == 7: count >= 4
			m = c2
		}
		maj[i] = m
		// Mask disagreements beyond the operation's bit count: tail bits are
		// slack in the last word, not data.
		d := any &^ all
		if hi := bitCount - i*64; hi < 64 {
			if hi <= 0 {
				d = 0
			} else {
				d &= (uint64(1) << uint(hi)) - 1
			}
		}
		disagree += bits.OnesCount64(d)
	}
	return disagree, nil
}
