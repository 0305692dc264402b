package bench

import (
	"fmt"
	"sync"

	"pinatubo"
	"pinatubo/internal/bitvec"
)

// This file is the benchmark's reference oracle: a word-level model of
// every vector a workload touches, computed with internal/bitvec alone. No
// simulator code runs here, so a bug in lowering, sensing, sharding or
// merging cannot hide in the model it is checked against.

// refApply computes dst = op(srcs) on reference vectors and returns the
// population count for OpPopcount (which counts dst and takes no sources).
func refApply(op pinatubo.Op, dst *bitvec.Vector, srcs []*bitvec.Vector) int {
	switch op {
	case pinatubo.OpOr:
		dst.OrAll(srcs...)
	case pinatubo.OpAnd:
		dst.And(srcs[0], srcs[1])
	case pinatubo.OpXor:
		dst.Xor(srcs[0], srcs[1])
	case pinatubo.OpNot:
		dst.Not(srcs[0])
	case pinatubo.OpCopy:
		dst.CopyFrom(srcs[0])
	case pinatubo.OpPopcount:
		return dst.Popcount()
	default:
		panic(fmt.Sprintf("bench: reference model has no %v", op))
	}
	return 0
}

// maxReported bounds how many mismatches a report spells out.
const maxReported = 5

// checker collects output mismatches between the program and the oracle.
// Any mismatch makes the run incorrect. Safe for concurrent use.
type checker struct {
	mu    sync.Mutex
	wrong int64
	notes []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if len(c.notes) < maxReported {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// count checks a popcount. label names the output and runs only on a
// mismatch, so a passing check costs no formatting.
func (c *checker) count(got, want int, label func() string) {
	if got != want {
		c.fail("%s: popcount %d, reference %d", label(), got, want)
	}
}

// words checks vector contents read back from the program.
func (c *checker) words(got []uint64, want *bitvec.Vector, label func() string) {
	if len(got) != want.WordCount() || !bitvec.EqualWords(got, want.Words(), want.Len()) {
		c.fail("%s: %d of %d bits differ from the reference", label(), diffBits(got, want), want.Len())
	}
}

// diffBits counts the bits of got that disagree with want (a short read
// counts its missing words as all wrong).
func diffBits(got []uint64, want *bitvec.Vector) int {
	full := make([]uint64, want.WordCount())
	copy(full, got)
	return bitvec.DiffCount(full, want.Words(), want.Len())
}

// randomVector draws a vector of uniformly random bits.
func randomVector(rng interface{ Uint64() uint64 }, bits int) *bitvec.Vector {
	v := bitvec.New(bits)
	for i := 0; i < v.WordCount(); i++ {
		v.SetWord(i, rng.Uint64())
	}
	return v
}
