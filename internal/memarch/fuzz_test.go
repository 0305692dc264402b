package memarch

import (
	"testing"

	"pinatubo/internal/nvm"
)

// fuzzGeometry is one subarray of four 16-word rows: small enough that
// every fuzz step can check every row against the reference model, and
// that random write lengths often hit the empty, partial and full cases.
func fuzzGeometry() Geometry {
	return Geometry{Channels: 1, RanksPerChannel: 1, ChipsPerRank: 1,
		BanksPerChip: 1, SubarraysPerBank: 1, MatsPerSubarray: 1,
		RowsPerSubarray: 4, MatRowBits: 1024, MuxRatio: 32}
}

// refRows is the naive full-row reference for one Memory: every row is
// a full-width slice that each write overwrites whole, and a borrowed row
// reads the lender's words until a mutator gives it words of its own.
type refRows struct {
	rows     [][]uint64
	borrowed []bool
}

func newRefRows(rows, words int) *refRows {
	r := &refRows{rows: make([][]uint64, rows), borrowed: make([]bool, rows)}
	for i := range r.rows {
		r.rows[i] = make([]uint64, words)
	}
	return r
}

// FuzzRowExtent drives random sequences of WriteRow, CopyRow between two
// memories, bit sets through MutableRow, BorrowRow, ReadRow and Reset, and
// after every step checks each materialised row word for word against the
// full-row reference, together with the extent invariant (every word at
// or beyond a row's extent is zero). A third memory lends rows of every
// extent through BorrowRow and must never change: a mutator on a borrowed
// row copies it first, and the row then holds the lent words with the
// mutation applied and is no longer borrowed.
//
// Each step reads an op byte, a byte selecting the memory and the row,
// and the op's operands.
func FuzzRowExtent(f *testing.F) {
	// Full write, narrow rewrite, Reset, then a narrow write on a
	// recycled row.
	f.Add([]byte{0, 0, 16, 1, 0, 0, 2, 2, 5, 0, 4, 0, 0, 0, 3, 3, 5, 0})
	// A stuck bit far beyond a narrow write, then narrower rewrites.
	f.Add([]byte{0, 2, 3, 7, 2, 2, 3, 250, 5, 2, 0, 2, 1, 9, 0, 2, 0, 0})
	// Borrow a lent row and overwrite it, borrow it again and set a bit
	// through MutableRow, copy a borrowed row into the other memory, then
	// Reset and read the row back as zeros.
	f.Add([]byte{3, 6, 4, 6, 0, 6, 2, 9, 4, 6, 3, 6, 2, 6, 1, 7, 4, 6, 3, 5, 1, 4, 1, 5, 0, 4, 6})
	// Copies between the memories in both directions and from the lender.
	f.Add([]byte{0, 1, 16, 5, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 2, 1, 4, 1, 2, 3, 1, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		geo := fuzzGeometry()
		nw, nr := geo.RowWords(), geo.RowsPerSubarray
		newMem := func() *Memory {
			m, err := NewMemory(geo, nvm.Get(nvm.PCM))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		// Two memories under test and a lender whose rows hold 0, 5, 10
		// and 16 words.
		mems := []*Memory{newMem(), newMem(), newMem()}
		lender, lent := mems[2], newRefRows(nr, nw)
		refs := []*refRows{newRefRows(nr, nw), newRefRows(nr, nw), lent}
		for r := range lent.rows {
			n := r * nw / (nr - 1)
			for j := 0; j < n; j++ {
				lent.rows[r][j] = uint64(r+1)<<32 | uint64(j+1)
			}
			if err := lender.WriteRow(RowAddr{Row: r}, lent.rows[r][:n]); err != nil {
				t.Fatal(err)
			}
		}
		// content is what a reference memory's row reads as.
		content := func(ref *refRows, r int) []uint64 {
			if ref.borrowed[r] {
				return lent.rows[r]
			}
			return ref.rows[r]
		}

		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		for step := 0; len(prog) > 0 && step < 256; step++ {
			op, sel := next()%6, next()
			mi, r := sel&1, (sel>>1)%nr
			m, ref, a := mems[mi], refs[mi], RowAddr{Row: r}
			// own gives the reference row the words it reads before a
			// mutator: a borrowed row becomes a copy of the lent words.
			own := func() {
				if ref.borrowed[r] {
					copy(ref.rows[r], lent.rows[r])
					ref.borrowed[r] = false
				}
			}
			switch op {
			case 0:
				n, seed := next()%(nw+1), next()
				words := make([]uint64, n)
				for j := range words {
					words[j] = uint64(seed+1)*0x9e3779b97f4a7c15 ^ uint64(step)<<8 ^ uint64(j)
				}
				if err := m.WriteRow(a, words); err != nil {
					t.Fatalf("step %d: WriteRow memory %d row %d: %v", step, mi, r, err)
				}
				own()
				clear(ref.rows[r])
				copy(ref.rows[r], words)
			case 1:
				si := next() % 3
				want := append([]uint64(nil), content(refs[si], r)...)
				m.CopyRow(a, mems[si])
				own()
				copy(ref.rows[r], want)
			case 2:
				pos := (next()<<8 | next()) % (nw * 64)
				m.MutableRow(a)[pos/64] |= 1 << (pos % 64)
				own()
				ref.rows[r][pos/64] |= 1 << (pos % 64)
			case 3:
				m.BorrowRow(a, lender)
				ref.borrowed[r] = true
			case 4:
				got, want := m.ReadRow(a), content(ref, r)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("step %d: ReadRow memory %d row %d word %d = %#x, want %#x",
							step, mi, r, j, got[j], want[j])
					}
				}
			case 5:
				m.Reset()
				*ref = *newRefRows(nr, nw)
			}

			for i, mem := range mems {
				want := refs[i]
				for r := 0; r < nr; r++ {
					row, ok := mem.rows[geo.Encode(RowAddr{Row: r})]
					words := content(want, r)
					if !ok {
						for j, w := range words {
							if w != 0 {
								t.Fatalf("step %d: memory %d row %d unmaterialised, reference word %d = %#x",
									step, i, r, j, w)
							}
						}
						continue
					}
					if row.borrowed != want.borrowed[r] {
						t.Fatalf("step %d: memory %d row %d borrowed %v, want %v",
							step, i, r, row.borrowed, want.borrowed[r])
					}
					if lent := lender.rows[geo.Encode(RowAddr{Row: r})]; row.borrowed && row.extent != lent.extent {
						t.Fatalf("step %d: memory %d row %d borrowed with extent %d, lender's is %d",
							step, i, r, row.extent, lent.extent)
					}
					if row.extent < 0 || row.extent > nw {
						t.Fatalf("step %d: memory %d row %d extent %d outside 0..%d", step, i, r, row.extent, nw)
					}
					for j, w := range row.words {
						if w != words[j] {
							t.Fatalf("step %d: memory %d row %d word %d = %#x, want %#x",
								step, i, r, j, w, words[j])
						}
						if j >= row.extent && w != 0 {
							t.Fatalf("step %d: memory %d row %d word %d = %#x beyond extent %d",
								step, i, r, j, w, row.extent)
						}
					}
				}
			}
		}
	})
}
