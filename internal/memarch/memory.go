package memarch

import (
	"fmt"
	"slices"

	"pinatubo/internal/nvm"
)

// Memory is the functional storage model of an NVM main memory: every
// rank-logical row is addressable, rows are materialised lazily (a default
// geometry holds 16 GiB per rank, far more than a simulation ever touches),
// and unwritten rows read as all zeros — the RESET (high-resistance, logic
// "0") state a fresh PCM array powers up in.
//
// It is the one owner of each physical row's record: its words and
// written extent, its program count, the check words its spare columns
// store, its wear (see Wear) and the replica group it belongs to (see
// SetGroup). Every word at or beyond a row's extent is zero. A record
// changes only through Memory's mutators (WriteRow, CopyRow, MutableRow,
// SetCheck, SetWear, SetGroup, DropGroup), which keep the extent current,
// so writes, copies and Reset touch only the words below it — a row
// holding an 8,192-bit vector costs 128 words to rewrite, not the 8,192
// of a 524,288-bit row.
//
// A row borrowed from another Memory (BorrowRow) reads the lender's whole
// record until it changes. The one rule the batch merge relies on: any
// change to a row's words, check words or wear first gives a borrowed row
// backing of its own, and every such mutator enforces it, so
// AppendOwnedAddrs lists every row a borrower changed and CopyRow carries
// the whole record back. A replica group needs no materialised row:
// BorrowRow lends it also for a row the lender never wrote, and SetGroup
// and DropGroup change it without giving a borrowed row backing of its
// own, so a merge does not carry a borrower's group change back. Stored
// check words, stuck lists and replica groups are replaced, never
// modified in place, so a borrowed row shares them with its lender.
//
// Memory also owns the two buffer levels Pinatubo's inter-subarray and
// inter-bank datapaths latch results in: one global row buffer per bank and
// one I/O buffer per rank.
type Memory struct {
	geo  Geometry
	tech nvm.Params
	rows map[uint64]row
	// cells holds the rest of each row's record (see cellState), keyed
	// like rows.
	cells map[uint64]cellState
	// groups holds the replica group of every row in one, keyed like rows
	// by each member. It is made on first use: only a replicated System
	// sets groups.
	groups map[uint64]group

	// globalBuf[channel][rank][bank] is the bank's global row buffer.
	globalBuf map[[3]int][]uint64
	// ioBuf[channel][rank] is the rank's I/O buffer.
	ioBuf map[[2]int][]uint64

	// freeRows recycles zeroed row storage from Reset, so a pooled shard
	// memory re-materialises its working set without fresh allocations.
	freeRows [][]uint64
	// zero is the one all-zeros row PeekRow returns for every row never
	// materialised; nothing ever writes it.
	zero []uint64
	// ownedKeys is AppendOwnedAddrs' sort buffer.
	ownedKeys []uint64
}

// row is one materialised row.
type row struct {
	// words is the full-width backing.
	words []uint64
	// extent bounds the words the row holds: every word at or beyond it
	// is zero.
	extent int
	// borrowed marks backing lent by another Memory (BorrowRow). Reset
	// detaches it instead of zeroing and recycling it, and a mutator gives
	// the row backing of its own before its first change.
	borrowed bool
	// programs counts WriteRow's programs of the row — PCM endurance is
	// finite (~10^8 writes), so the evaluation's chained designs must be
	// auditable for write amplification.
	programs int64
}

// cellState is the part of a row's record that only the ECC and wear
// paths read: the check words its spare columns store, the data-bit
// count they were encoded over, and its wear. It lives in a map of its
// own so the row value PeekRow and WriteRow copy stays small; BorrowRow,
// CopyRow and Reset handle it with the rows and the replica groups.
type cellState struct {
	checkBits int
	check     []uint64
	wear      Wear
}

// group is one replica group: a primary row, keyed like Memory.rows, and
// the rows that store copies of it. Every member's record holds the same
// group, whose replicas slice nothing modifies.
type group struct {
	primary  uint64
	replicas []RowAddr
}

// Wear is a row's wear record. A fault injector decides when a program
// wears the row and where a cell sticks (internal/fault); the record only
// keeps the outcome.
type Wear struct {
	// Events counts the wear events the row's programs accrued.
	Events int64
	// Frac counts the programs toward the next event of a row that stores
	// one of R replicas of a logical row: each such program is 1/R of an
	// event.
	Frac int64
	// Stuck lists the row's permanently failed cells, in the order they
	// failed. A new list replaces the old one; neither is modified.
	Stuck []StuckBit
}

// StuckBit is one permanently failed cell of a row: its bit position
// (positions at or past the data row width are spare-column cells) and
// the value it is stuck at.
type StuckBit struct {
	Pos int
	Val bool
}

// fill overwrites the row with src and zeroes only the old words src does
// not cover, returning the row with its new extent.
func (r row) fill(src []uint64) row {
	n := copy(r.words, src)
	if n < r.extent {
		clear(r.words[n:r.extent])
	}
	r.extent = n
	return r
}

// NewMemory builds a memory with the given geometry and technology.
func NewMemory(geo Geometry, tech nvm.Params) (*Memory, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Memory{
		geo:       geo,
		tech:      tech,
		rows:      make(map[uint64]row),
		cells:     make(map[uint64]cellState),
		globalBuf: make(map[[3]int][]uint64),
		ioBuf:     make(map[[2]int][]uint64),
	}, nil
}

// Geometry returns the memory organisation.
func (m *Memory) Geometry() Geometry { return m.geo }

// Tech returns the technology parameters.
func (m *Memory) Tech() nvm.Params { return m.tech }

// row returns addr's key and row, materialising it (zeroed, extent 0) if
// needed.
func (m *Memory) row(addr RowAddr) (uint64, row) {
	key := m.geo.Encode(addr)
	r, ok := m.rows[key]
	if !ok {
		r.words = m.newWords()
		m.rows[key] = r
	}
	return key, r
}

// newWords returns zeroed full-width row backing, recycled when it can be.
func (m *Memory) newWords() []uint64 {
	if n := len(m.freeRows); n > 0 {
		w := m.freeRows[n-1]
		m.freeRows = m.freeRows[:n-1]
		return w
	}
	return make([]uint64, m.geo.RowWords())
}

// writable is row for a mutator that overwrites the row's words: a
// borrowed row gets zeroed backing of its own, and the lent words are
// not copied.
func (m *Memory) writable(addr RowAddr) (uint64, row) {
	key, r := m.row(addr)
	if r.borrowed {
		r = row{words: m.newWords(), programs: r.programs}
	}
	return key, r
}

// BorrowRow makes addr read the lender's record of the row at the same
// address — words, extent, program count, check words, wear and replica
// group — without copying the words. A mutator gives the row backing of
// its own before its first change, so the lender never changes, and Reset
// detaches the row without zeroing or recycling it. A row the lender
// never materialised has no words, check words or wear to lend (cell
// state exists only for a materialised row): the borrower drops its own,
// so the row reads zeros through PeekRow, and the lender stays as it was.
// Its replica group is lent all the same.
func (m *Memory) BorrowRow(addr RowAddr, lender *Memory) {
	key := m.geo.Encode(addr)
	m.setGroup(key, lender)
	r, ok := lender.rows[key]
	if !ok {
		delete(m.rows, key)
		delete(m.cells, key)
		return
	}
	r.borrowed = true
	m.rows[key] = r
	m.setCells(key, lender)
}

// setCells makes key's cell state src's.
func (m *Memory) setCells(key uint64, src *Memory) {
	if c, ok := src.cells[key]; ok {
		m.cells[key] = c
	} else {
		delete(m.cells, key)
	}
}

// setGroup makes key's replica group src's.
func (m *Memory) setGroup(key uint64, src *Memory) {
	g, ok := src.groups[key]
	if !ok {
		delete(m.groups, key)
		return
	}
	if m.groups == nil {
		m.groups = make(map[uint64]group)
	}
	m.groups[key] = g
}

// Borrowed reports whether addr reads a row borrowed via BorrowRow.
func (m *Memory) Borrowed(addr RowAddr) bool {
	return m.rows[m.geo.Encode(addr)].borrowed
}

// Reset restores the memory to its fresh all-zeros state: every row's
// record, replica group included, and every buffer is cleared. A row is
// zeroed up to its extent only and kept on a freelist, so a pooled shard
// memory that
// re-materialises a similar working set on its next window allocates
// nothing for it. Borrowed rows are detached untouched — their storage
// belongs to the lending memory.
func (m *Memory) Reset() {
	for k, r := range m.rows {
		delete(m.rows, k)
		if r.borrowed {
			continue
		}
		clear(r.words[:r.extent])
		//pinlint:ignore maporder recycled buffers are zeroed and interchangeable; pop order is unobservable
		m.freeRows = append(m.freeRows, r.words)
	}
	for k, b := range m.globalBuf {
		for i := range b {
			b[i] = 0
		}
		//pinlint:ignore maporder recycled buffers are zeroed and interchangeable; pop order is unobservable
		m.freeRows = append(m.freeRows, b)
		delete(m.globalBuf, k)
	}
	for k, b := range m.ioBuf {
		for i := range b {
			b[i] = 0
		}
		//pinlint:ignore maporder recycled buffers are zeroed and interchangeable; pop order is unobservable
		m.freeRows = append(m.freeRows, b)
		delete(m.ioBuf, k)
	}
	clear(m.cells)
	clear(m.groups)
}

// PeekRow returns the full-width words of a row without copying them.
// Intended for the PIM datapath; ordinary clients should use ReadRow. The
// slice is read-only outside this package — for a borrowed row it is the
// lender's backing: change a row only through the mutators (WriteRow,
// CopyRow, MutableRow, SetCheck, SetWear), which keep the row's extent
// and copy a borrowed row before its first change (pinlint's rowwrite
// analyzer enforces this for the words). A never-written row
// is not materialised: it reads as one zero row the memory shares among
// all of them, so a slice peeked before the row's first write does not
// follow that write. Peek again after writing.
func (m *Memory) PeekRow(addr RowAddr) []uint64 {
	if r, ok := m.rows[m.geo.Encode(addr)]; ok {
		return r.words
	}
	if m.zero == nil {
		m.zero = make([]uint64, m.geo.RowWords())
	}
	return m.zero
}

// ReadRow returns a copy of the row's words.
func (m *Memory) ReadRow(addr RowAddr) []uint64 {
	_, r := m.row(addr)
	dst := make([]uint64, len(r.words))
	copy(dst, r.words[:r.extent])
	return dst
}

// WriteRow overwrites the row with words: shorter slices leave the rest
// of the row zero, and longer slices are an error. It copies len(words)
// words and clears only the words the row held beyond them, so its cost
// is proportional to the old and new extents, not to the row width. A
// borrowed row gets backing of its own first. Each call counts one
// program of the row.
func (m *Memory) WriteRow(addr RowAddr, words []uint64) error {
	if len(words) > m.geo.RowWords() {
		return fmt.Errorf("memarch: writing %d words into a %d-word row %v",
			len(words), m.geo.RowWords(), addr)
	}
	key, r := m.writable(addr)
	r = r.fill(words)
	r.programs++
	m.rows[key] = r
	return nil
}

// CopyRow overwrites addr's record with src's record of the row at the
// same address: words, program count, check words, wear and replica
// group. The batch executor uses it to merge a shard's rows back. Like
// WriteRow it touches
// only the two extents and gives a borrowed destination backing of its
// own; unlike WriteRow it models no hardware write, so the program count
// is src's, not one more.
func (m *Memory) CopyRow(addr RowAddr, src *Memory) {
	key, r := m.writable(addr)
	_, s := src.row(addr)
	r = r.fill(s.words[:s.extent])
	r.programs = s.programs
	m.rows[key] = r
	m.setCells(key, src)
	m.setGroup(key, src)
}

// MutableRow returns addr's full-width words for an in-place update that
// may touch any word, and widens the row's extent to the whole row. The
// controller forces a worn row's stuck-at cells through it: stuck cells
// can sit anywhere in a row, beyond the words the last write covered. A
// borrowed row is copied into backing of its own first (unborrow). No
// access is counted.
func (m *Memory) MutableRow(addr RowAddr) []uint64 {
	key, r := m.row(addr)
	if r.borrowed {
		r = m.unborrow(r)
	}
	r.extent = len(r.words)
	m.rows[key] = r
	return r.words
}

// unborrow returns a borrowed row's record in backing of its own. It
// stays out of MutableRow's body so the owned-row path stays small.
func (m *Memory) unborrow(r row) row {
	words := m.newWords()
	copy(words, r.words[:r.extent])
	r.words, r.borrowed = words, false
	return r
}

// Check returns the check words addr's spare columns store and the
// data-bit count they were encoded over; ok is false when none are
// stored. The words are shared with the record, and with every memory
// that borrowed the row: the caller must not modify them.
func (m *Memory) Check(addr RowAddr) (bits int, words []uint64, ok bool) {
	c := m.cells[m.geo.Encode(addr)]
	return c.checkBits, c.check, c.check != nil
}

// SetCheck replaces addr's check words with words, encoded over bits data
// bits. The record keeps words itself: the caller must not modify them
// afterwards. A borrowed row gets backing of its own first.
func (m *Memory) SetCheck(addr RowAddr, bits int, words []uint64) {
	key, c := m.ownCells(addr)
	c.checkBits, c.check = bits, words
	m.cells[key] = c
}

// Wear returns addr's wear record. Its stuck list is shared with the
// record: the caller must not modify it.
func (m *Memory) Wear(addr RowAddr) Wear {
	return m.cells[m.geo.Encode(addr)].wear
}

// SetWear replaces addr's wear record with w, whose stuck list the record
// keeps: the caller must not modify it afterwards. A borrowed row gets
// backing of its own first.
func (m *Memory) SetWear(addr RowAddr, w Wear) {
	key, c := m.ownCells(addr)
	c.wear = w
	m.cells[key] = c
}

// ownCells returns addr's key and cell state for a setter, first giving a
// borrowed row backing of its own.
func (m *Memory) ownCells(addr RowAddr) (uint64, cellState) {
	key, r := m.row(addr)
	if r.borrowed {
		m.rows[key] = m.unborrow(r)
	}
	return key, m.cells[key]
}

// SetGroup makes primary and its replicas one replica group: the
// replicas store copies of primary, a majority vote senses them all, and
// each member's programs wear it 1/GroupSize as fast. Every member's
// record is set to the group, replacing any group it was in. The group
// keeps replicas itself: the caller must not modify it afterwards.
func (m *Memory) SetGroup(primary RowAddr, replicas []RowAddr) {
	if m.groups == nil {
		m.groups = make(map[uint64]group)
	}
	g := group{primary: m.geo.Encode(primary), replicas: replicas}
	m.groups[g.primary] = g
	for _, r := range replicas {
		m.groups[m.geo.Encode(r)] = g
	}
}

// groupOf returns addr's key and replica group; ok is false for a row in
// no group. A memory that holds no group returns before encoding addr.
func (m *Memory) groupOf(addr RowAddr) (key uint64, g group, ok bool) {
	if len(m.groups) == 0 {
		return 0, group{}, false
	}
	key = m.geo.Encode(addr)
	g, ok = m.groups[key]
	return key, g, ok
}

// Replicas returns the replicas of addr's group when addr is its primary,
// and nil otherwise. The slice is shared with the record: the caller must
// not modify it.
func (m *Memory) Replicas(addr RowAddr) []RowAddr {
	if key, g, ok := m.groupOf(addr); ok && g.primary == key {
		return g.replicas
	}
	return nil
}

// GroupSize returns how many rows addr's replica group holds, primary
// included, and 1 for a row in no group: the share of a logical row's
// wear each of its copies takes.
func (m *Memory) GroupSize(addr RowAddr) int {
	_, g, _ := m.groupOf(addr)
	return 1 + len(g.replicas)
}

// DropGroup forgets the replica group primary heads, from every member
// whose record still holds it, and returns its replicas; it returns nil
// and changes nothing when primary heads no group.
func (m *Memory) DropGroup(primary RowAddr) []RowAddr {
	key, g, ok := m.groupOf(primary)
	if !ok || g.primary != key {
		return nil
	}
	delete(m.groups, key)
	for _, r := range g.replicas {
		if k := m.geo.Encode(r); m.groups[k].primary == key {
			delete(m.groups, k)
		}
	}
	return g.replicas
}

// MaterializedRows reports how many rows have backing storage (testing aid).
func (m *Memory) MaterializedRows() int { return len(m.rows) }

// AppendOwnedAddrs appends the address of every materialised row that
// is not borrowed to buf, in ascending row-key order (deterministic
// regardless of map iteration order), and returns the extended buffer.
// The batch executor uses it to copy the rows a shard wrote back into the
// live memory. The keys are sorted in a buffer the memory keeps, so a
// caller that keeps buf allocates nothing once both have held the largest
// set.
func (m *Memory) AppendOwnedAddrs(buf []RowAddr) []RowAddr {
	keys := m.ownedKeys[:0]
	for k, r := range m.rows {
		if !r.borrowed {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	m.ownedKeys = keys
	for _, k := range keys {
		buf = append(buf, m.geo.Decode(k))
	}
	return buf
}

// RowWriteCount returns how many times addr has been programmed.
func (m *Memory) RowWriteCount(addr RowAddr) int64 {
	return m.rows[m.geo.Encode(addr)].programs
}

// HottestRow returns the most-written row and its write count — the
// endurance hot spot a wear-levelling layer would need to rotate. The
// zero address with count 0 means nothing was written yet.
func (m *Memory) HottestRow() (RowAddr, int64) {
	var bestKey uint64
	var best int64
	for k, r := range m.rows {
		if r.programs > best || (r.programs == best && k < bestKey) {
			bestKey, best = k, r.programs
		}
	}
	if best == 0 {
		return RowAddr{}, 0
	}
	return m.geo.Decode(bestKey), best
}

// GlobalBuffer returns the bank's global row buffer, materialising it on
// first use.
func (m *Memory) GlobalBuffer(channel, rank, bank int) []uint64 {
	key := [3]int{channel, rank, bank}
	b, ok := m.globalBuf[key]
	if !ok {
		b = make([]uint64, m.geo.RowWords())
		m.globalBuf[key] = b
	}
	return b
}

// IOBuffer returns the rank's I/O buffer, materialising it on first use.
func (m *Memory) IOBuffer(channel, rank int) []uint64 {
	key := [2]int{channel, rank}
	b, ok := m.ioBuf[key]
	if !ok {
		b = make([]uint64, m.geo.RowWords())
		m.ioBuf[key] = b
	}
	return b
}
