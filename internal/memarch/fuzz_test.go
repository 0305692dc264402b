package memarch

import (
	"reflect"
	"slices"
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

// refRecord is the naive reference of one row's record: full-width words
// that each write overwrites whole, the program count, the check words
// and the wear. Its check words and stuck list are the reference's own
// copies, so a memory that modified a stored slice in place would
// disagree with them.
type refRecord struct {
	words     []uint64
	programs  int64
	checkBits int
	check     []uint64
	wear      Wear
}

// clone returns the record with words of its own; the check words and
// stuck list are shared, because the reference only ever replaces them.
func (r refRecord) clone() refRecord {
	r.words = slices.Clone(r.words)
	return r
}

// refGroup is the reference of one replica group: its primary row and
// the rows that store its copies.
type refGroup struct {
	primary  int
	replicas []int
}

// refRows is the reference for one Memory: a borrowed row reads the
// lender's record until a mutator gives it a record of its own. A row's
// replica group is copied, not read through, so groups[r] is the group
// row r's record holds (nil for none) whether or not r is borrowed.
type refRows struct {
	rows     []refRecord
	borrowed []bool
	groups   []*refGroup
}

func newRefRows(rows, words int) *refRows {
	r := &refRows{rows: make([]refRecord, rows), borrowed: make([]bool, rows), groups: make([]*refGroup, rows)}
	for i := range r.rows {
		r.rows[i].words = make([]uint64, words)
	}
	return r
}

// setGroup makes g the group of every one of its members.
func (r *refRows) setGroup(g *refGroup) {
	r.groups[g.primary] = g
	for _, m := range g.replicas {
		r.groups[m] = g
	}
}

// rowAddrs returns the addresses of rows.
func rowAddrs(rows []int) []RowAddr {
	var out []RowAddr
	for _, r := range rows {
		out = append(out, RowAddr{Row: r})
	}
	return out
}

// FuzzRowExtent drives random sequences of WriteRow, CopyRow between two
// memories, bit sets through MutableRow, BorrowRow, ReadRow, Reset,
// SetCheck, SetWear, SetGroup and DropGroup, and after every step checks
// each row's whole record — words, program count, check words, wear and
// replica group (Replicas and GroupSize) — against the reference,
// together with the extent invariant (every word at or beyond a row's
// extent is zero). A third memory lends rows of every extent, with and
// without check words, wear and a replica group, through BorrowRow and
// must never change, its check words, stuck lists and groups included:
// any change to a borrowed row's words, check words or wear gives it a
// record of its own first, which holds the lent record with the change
// applied and is no longer borrowed. A fourth memory holds no row at all,
// only a replica group: borrowing from it lends that group and nothing
// else, so the borrower's row reads zeros unmaterialised, and it must stay
// as it was. Setting or dropping a group materialises no row.
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
	// Borrow the lent row with check words and wear, replace its check
	// words, borrow it again and replace its wear, copy it into the other
	// memory, then Reset.
	f.Add([]byte{3, 6, 6, 6, 2, 40, 9, 3, 6, 7, 6, 5, 2, 2, 17, 200, 1, 7, 0, 5, 0})
	// Check words and wear on a fresh row, a write over them, a copy from
	// the lender, and a borrowed row merged back with CopyRow.
	f.Add([]byte{6, 0, 1, 64, 3, 7, 0, 9, 1, 1, 30, 0, 0, 4, 2, 1, 0, 2, 3, 7, 0, 2, 1, 1, 7, 0})
	// Borrow a row the empty memory never materialised over a borrowed
	// row, over an owned row with check words and wear, and on a fresh
	// row; write one of them, then merge it into the other memory.
	f.Add([]byte{3, 4, 8, 4, 0, 2, 5, 1, 6, 2, 9, 1, 3, 7, 2, 1, 0, 1, 8, 2, 8, 2, 8, 6, 0, 6, 3, 7, 1, 7, 0, 4, 7})
	// Borrow a replicated row the empty memory never wrote; set a group
	// on rows never written, replace one member's group by borrowing, and
	// drop groups through a non-primary and a replaced member (nothing
	// changes); write the borrowed row, merge it into the other memory
	// and drop its group there; borrow the lender's replicated row, then
	// Reset.
	f.Add([]byte{8, 2, 9, 7, 5, 8, 7, 10, 7, 10, 1, 0, 2, 5, 9, 1, 3, 0, 10, 3, 3, 4, 5, 0})
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
		// and 16 words; row 1 has check words, row 2 wear, row 3 both, and
		// row 2 heads a replica group whose copy is row 0. The empty
		// memory's row 1 heads a group whose copy is row 3.
		mems := []*Memory{newMem(), newMem(), newMem(), newMem()}
		lender, lent, empty := mems[2], newRefRows(nr, nw), mems[3]
		refs := []*refRows{newRefRows(nr, nw), newRefRows(nr, nw), lent, newRefRows(nr, nw)}
		for i, g := range []refGroup{2: {primary: 2, replicas: []int{0}}, 3: {primary: 1, replicas: []int{3}}} {
			if g.replicas != nil {
				mems[i].SetGroup(RowAddr{Row: g.primary}, rowAddrs(g.replicas))
				refs[i].setGroup(&g)
			}
		}
		for r := range lent.rows {
			a, rec := RowAddr{Row: r}, &lent.rows[r]
			n := r * nw / (nr - 1)
			for j := 0; j < n; j++ {
				rec.words[j] = uint64(r+1)<<32 | uint64(j+1)
			}
			if err := lender.WriteRow(a, rec.words[:n]); err != nil {
				t.Fatal(err)
			}
			rec.programs = 1
			if r&1 != 0 {
				rec.checkBits, rec.check = 64*r, []uint64{uint64(r), ^uint64(r)}
				lender.SetCheck(a, rec.checkBits, slices.Clone(rec.check))
			}
			if r&2 != 0 {
				rec.wear = Wear{Events: int64(r), Frac: 1, Stuck: []StuckBit{{Pos: r, Val: true}, {Pos: 7 * r}}}
				lender.SetWear(a, Wear{Events: rec.wear.Events, Frac: rec.wear.Frac, Stuck: slices.Clone(rec.wear.Stuck)})
			}
		}
		// content is the record a reference memory's row reads.
		content := func(ref *refRows, r int) refRecord {
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
			op, sel := next()%11, next()
			mi, r := sel&1, (sel>>1)%nr
			m, ref, a := mems[mi], refs[mi], RowAddr{Row: r}
			// own gives the reference row the record it reads before a
			// mutator: a borrowed row becomes a copy of the lent record.
			own := func() *refRecord {
				if ref.borrowed[r] {
					ref.rows[r] = lent.rows[r].clone()
					ref.borrowed[r] = false
				}
				return &ref.rows[r]
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
				rec := own()
				clear(rec.words)
				copy(rec.words, words)
				rec.programs++
			case 1:
				si := next() % 3
				want := content(refs[si], r).clone()
				m.CopyRow(a, mems[si])
				own()
				ref.rows[r] = want
				ref.groups[r] = refs[si].groups[r]
			case 2:
				pos := (next()<<8 | next()) % (nw * 64)
				m.MutableRow(a)[pos/64] |= 1 << (pos % 64)
				own().words[pos/64] |= 1 << (pos % 64)
			case 3:
				m.BorrowRow(a, lender)
				ref.borrowed[r] = true
				ref.groups[r] = lent.groups[r]
			case 4:
				got, want := m.ReadRow(a), content(ref, r).words
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("step %d: ReadRow memory %d row %d word %d = %#x, want %#x",
							step, mi, r, j, got[j], want[j])
					}
				}
			case 5:
				m.Reset()
				*ref = *newRefRows(nr, nw)
			case 6:
				bits, n, seed := next()+1, next()%3+1, next()
				words := make([]uint64, n)
				for j := range words {
					words[j] = uint64(seed)<<16 ^ uint64(step)<<8 ^ uint64(j)
				}
				m.SetCheck(a, bits, words)
				rec := own()
				rec.checkBits, rec.check = bits, slices.Clone(words)
			case 7:
				w := Wear{Events: int64(next()), Frac: int64(next() % 4)}
				for range next() % 3 {
					w.Stuck = append(w.Stuck, StuckBit{Pos: next(), Val: next()&1 != 0})
				}
				m.SetWear(a, w)
				w.Stuck = slices.Clone(w.Stuck)
				own().wear = w
			case 8:
				m.BorrowRow(a, empty)
				ref.rows[r] = refRecord{words: make([]uint64, nw)}
				ref.borrowed[r] = false
				ref.groups[r] = refs[3].groups[r]
				if n := empty.MaterializedRows(); n != 0 || len(empty.cells) != 0 {
					t.Fatalf("step %d: borrowing row %d from the empty memory materialised %d of its rows", step, r, n)
				}
			case 9:
				g, mask, rows := &refGroup{primary: r}, next(), m.MaterializedRows()
				for j := range nr {
					if j != r && mask>>j&1 != 0 {
						g.replicas = append(g.replicas, j)
					}
				}
				m.SetGroup(a, rowAddrs(g.replicas))
				ref.setGroup(g)
				if n := m.MaterializedRows(); n != rows {
					t.Fatalf("step %d: SetGroup on memory %d row %d materialised %d rows", step, mi, r, n-rows)
				}
			case 10:
				rows := m.MaterializedRows()
				got := m.DropGroup(a)
				var want []RowAddr
				if g := ref.groups[r]; g != nil && g.primary == r {
					want = rowAddrs(g.replicas)
					for _, k := range append([]int{r}, g.replicas...) {
						if h := ref.groups[k]; h != nil && h.primary == r {
							ref.groups[k] = nil
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: DropGroup memory %d row %d returned %v, want %v", step, mi, r, got, want)
				}
				if n := m.MaterializedRows(); n != rows {
					t.Fatalf("step %d: DropGroup on memory %d row %d materialised %d rows", step, mi, r, n-rows)
				}
			}

			for i, mem := range mems {
				for r := 0; r < nr; r++ {
					a := RowAddr{Row: r}
					var reps []RowAddr
					size := 1
					if g := refs[i].groups[r]; g != nil {
						size += len(g.replicas)
						if g.primary == r {
							reps = rowAddrs(g.replicas)
						}
					}
					if got := mem.Replicas(a); !slices.Equal(got, reps) {
						t.Fatalf("step %d: memory %d row %d replicas %v, want %v", step, i, r, got, reps)
					}
					if got := mem.GroupSize(a); got != size {
						t.Fatalf("step %d: memory %d row %d group size %d, want %d", step, i, r, got, size)
					}
				}
			}

			for i, mem := range mems[:3] {
				want := refs[i]
				for r := 0; r < nr; r++ {
					a := RowAddr{Row: r}
					key := geo.Encode(a)
					row, ok := mem.rows[key]
					rec := content(want, r)
					if !ok {
						if _, has := mem.cells[key]; has {
							t.Fatalf("step %d: memory %d row %d unmaterialised but has cell state", step, i, r)
						}
						for j, w := range rec.words {
							if w != 0 {
								t.Fatalf("step %d: memory %d row %d unmaterialised, reference word %d = %#x",
									step, i, r, j, w)
							}
						}
						if rec.programs != 0 || rec.check != nil || !reflect.DeepEqual(rec.wear, Wear{}) {
							t.Fatalf("step %d: memory %d row %d unmaterialised, reference record %+v",
								step, i, r, rec)
						}
						continue
					}
					if row.borrowed != want.borrowed[r] {
						t.Fatalf("step %d: memory %d row %d borrowed %v, want %v",
							step, i, r, row.borrowed, want.borrowed[r])
					}
					if lent := lender.rows[key]; row.borrowed && row.extent != lent.extent {
						t.Fatalf("step %d: memory %d row %d borrowed with extent %d, lender's is %d",
							step, i, r, row.extent, lent.extent)
					}
					if row.extent < 0 || row.extent > nw {
						t.Fatalf("step %d: memory %d row %d extent %d outside 0..%d", step, i, r, row.extent, nw)
					}
					for j, w := range row.words {
						if w != rec.words[j] {
							t.Fatalf("step %d: memory %d row %d word %d = %#x, want %#x",
								step, i, r, j, w, rec.words[j])
						}
						if j >= row.extent && w != 0 {
							t.Fatalf("step %d: memory %d row %d word %d = %#x beyond extent %d",
								step, i, r, j, w, row.extent)
						}
					}
					if got := mem.RowWriteCount(a); got != rec.programs {
						t.Fatalf("step %d: memory %d row %d programmed %d times, want %d",
							step, i, r, got, rec.programs)
					}
					bits, check, ok := mem.Check(a)
					if ok != (rec.check != nil) || bits != rec.checkBits || !slices.Equal(check, rec.check) {
						t.Fatalf("step %d: memory %d row %d check %d/%#x (ok %v), want %d/%#x",
							step, i, r, bits, check, ok, rec.checkBits, rec.check)
					}
					if w := mem.Wear(a); w.Events != rec.wear.Events || w.Frac != rec.wear.Frac ||
						!slices.Equal(w.Stuck, rec.wear.Stuck) {
						t.Fatalf("step %d: memory %d row %d wear %+v, want %+v", step, i, r, w, rec.wear)
					}
				}
			}
		}
	})
}
