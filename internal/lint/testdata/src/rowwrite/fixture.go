// Package rowwritetest exercises the rowwrite analyzer against the real
// memory API: outside the package that declares PeekRow, its result is
// read-only, and rows change only through the memory's mutators.
package rowwritetest

import "pinatubo/internal/memarch"

func badCopyInto(dst, src *memarch.Memory, a memarch.RowAddr) {
	copy(dst.PeekRow(a), src.PeekRow(a)) // want `row write through PeekRow`
}

func badCopyIntoSlice(m *memarch.Memory, a memarch.RowAddr, words []uint64) {
	copy((m.PeekRow(a))[:len(words)], words) // want `row write through PeekRow`
}

func badElemStores(m *memarch.Memory, a memarch.RowAddr) {
	m.PeekRow(a)[0] = 1       // want `row write through PeekRow`
	m.PeekRow(a)[:2][1] |= 2  // want `row write through PeekRow`
	m.PeekRow(a)[2]++         // want `row write through PeekRow`
	_, m.PeekRow(a)[3] = 0, 4 // want `row write through PeekRow`
}

// goodReads only reads rows: PeekRow as a copy source, an operand, an
// index, or a slice stored into a table of rows.
func goodReads(m *memarch.Memory, a memarch.RowAddr, dst []uint64) uint64 {
	copy(dst, m.PeekRow(a))
	rows := make([][]uint64, 1)
	rows[0] = m.PeekRow(a)[:1]
	dst[m.PeekRow(a)[0]%uint64(len(dst))] = 1
	return m.PeekRow(a)[0] | rows[0][0]
}

// goodMutators changes rows only through the memory's own mutators.
func goodMutators(m, src *memarch.Memory, a memarch.RowAddr) error {
	if err := m.WriteRow(a, []uint64{1}); err != nil {
		return err
	}
	m.CopyRow(a, src)
	m.MutableRow(a)[0] |= 1
	return nil
}

// local declares its own PeekRow; the declaring package may write
// through it.
type local struct{ rows map[uint64][]uint64 }

func (l *local) PeekRow(a uint64) []uint64 { return l.rows[a] }

func goodOwnPackage(l *local) {
	l.PeekRow(0)[0] = 1
	copy(l.PeekRow(1), l.PeekRow(0))
}
