// Package memarch models the physical organisation of the NVM main memory
// Pinatubo lives in: channels of ranks, each rank built from lock-step
// chips, each chip from banks, banks from subarrays, subarrays from
// lock-step MATs whose bitlines share sense amplifiers through a column
// multiplexer (Fig. 3 of the paper).
//
// Because the eight chips of a rank and the MATs of a subarray operate in
// lock step, the simulator's unit of storage is the *rank-logical row*: the
// concatenation of one physical row from every MAT of one subarray across
// all chips. With the default geometry that is 2^19 bits — which is exactly
// why the paper's Fig. 9 throughput curve kinks at a 2^19-bit vector
// (turning point B), while the 32:1 column mux leaves 2^14 concurrently
// active SAs (turning point A).
package memarch

import (
	"fmt"
	"slices"
)

// Geometry describes the memory organisation. All counts must be powers of
// two (address slicing relies on it).
type Geometry struct {
	Channels         int // independent channels
	RanksPerChannel  int // ranks sharing one channel bus
	ChipsPerRank     int // lock-step chips forming a rank
	BanksPerChip     int // banks per chip
	SubarraysPerBank int // subarrays sharing the bank's global row buffer
	MatsPerSubarray  int // lock-step MATs per subarray
	RowsPerSubarray  int // wordlines per MAT (same in every MAT)
	MatRowBits       int // bits on one MAT row (columns per MAT)
	MuxRatio         int // adjacent columns sharing one SA (the paper: 32)
}

// Default returns the geometry used throughout the evaluation, sized so
// that the rank row is 2^19 bits and the concurrent SA width 2^14 bits.
func Default() Geometry {
	return Geometry{
		Channels:         4,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     8,
		SubarraysPerBank: 32,
		MatsPerSubarray:  16,
		RowsPerSubarray:  1024,
		MatRowBits:       4096,
		MuxRatio:         32,
	}
}

// Validate checks structural invariants.
func (g Geometry) Validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"RanksPerChannel", g.RanksPerChannel},
		{"ChipsPerRank", g.ChipsPerRank},
		{"BanksPerChip", g.BanksPerChip},
		{"SubarraysPerBank", g.SubarraysPerBank},
		{"MatsPerSubarray", g.MatsPerSubarray},
		{"RowsPerSubarray", g.RowsPerSubarray},
		{"MatRowBits", g.MatRowBits},
		{"MuxRatio", g.MuxRatio},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("memarch: %s must be positive, got %d", f.name, f.v)
		}
		if f.v&(f.v-1) != 0 {
			return fmt.Errorf("memarch: %s must be a power of two, got %d", f.name, f.v)
		}
	}
	if g.MatRowBits%g.MuxRatio != 0 {
		return fmt.Errorf("memarch: MuxRatio %d does not divide MatRowBits %d", g.MuxRatio, g.MatRowBits)
	}
	if g.RowBits()%64 != 0 {
		return fmt.Errorf("memarch: rank row of %d bits is not word aligned", g.RowBits())
	}
	return nil
}

// ChipRowBits is the row width contributed by one chip (all MATs of one
// subarray in lock step).
func (g Geometry) ChipRowBits() int { return g.MatsPerSubarray * g.MatRowBits }

// RowBits is the rank-logical row width: the unit of a Pinatubo operation.
func (g Geometry) RowBits() int { return g.ChipRowBits() * g.ChipsPerRank }

// RowWords is RowBits in 64-bit words.
func (g Geometry) RowWords() int { return g.RowBits() / 64 }

// SenseWidthBits is the number of bits resolved per sensing step across the
// rank: one SA per MuxRatio columns.
func (g Geometry) SenseWidthBits() int { return g.RowBits() / g.MuxRatio }

// ColumnGroups is the number of serial sensing steps needed to cover a full
// row (equals MuxRatio).
func (g Geometry) ColumnGroups() int { return g.MuxRatio }

// RowsPerBank is the number of rank-logical rows a bank holds.
func (g Geometry) RowsPerBank() int { return g.SubarraysPerBank * g.RowsPerSubarray }

// RowsPerRank is the number of rank-logical rows a rank holds.
func (g Geometry) RowsPerRank() int { return g.BanksPerChip * g.RowsPerBank() }

// TotalRows is the number of rank-logical rows in the whole memory.
func (g Geometry) TotalRows() int {
	return g.Channels * g.RanksPerChannel * g.RowsPerRank()
}

// CapacityBits is the total storage capacity in bits.
func (g Geometry) CapacityBits() int64 {
	return int64(g.TotalRows()) * int64(g.RowBits())
}

// RowAddr locates one rank-logical row.
type RowAddr struct {
	Channel  int
	Rank     int
	Bank     int
	Subarray int
	Row      int // wordline index within the subarray
}

// String renders the address in ch/rk/ba/sa/row form.
func (a RowAddr) String() string {
	return fmt.Sprintf("ch%d.rk%d.ba%d.sa%d.row%d", a.Channel, a.Rank, a.Bank, a.Subarray, a.Row)
}

// Valid reports whether the address is inside the geometry.
func (g Geometry) Valid(a RowAddr) bool {
	return a.Channel >= 0 && a.Channel < g.Channels &&
		a.Rank >= 0 && a.Rank < g.RanksPerChannel &&
		a.Bank >= 0 && a.Bank < g.BanksPerChip &&
		a.Subarray >= 0 && a.Subarray < g.SubarraysPerBank &&
		a.Row >= 0 && a.Row < g.RowsPerSubarray
}

// Encode flattens a RowAddr to a dense index in [0, TotalRows). Panics on
// an address outside the geometry — addresses are validated at the API
// boundary, so an invalid one here is a simulator bug.
func (g Geometry) Encode(a RowAddr) uint64 {
	if !g.Valid(a) {
		panic(fmt.Sprintf("memarch: invalid address %v for geometry", a))
	}
	idx := uint64(a.Channel)
	idx = idx*uint64(g.RanksPerChannel) + uint64(a.Rank)
	idx = idx*uint64(g.BanksPerChip) + uint64(a.Bank)
	idx = idx*uint64(g.SubarraysPerBank) + uint64(a.Subarray)
	idx = idx*uint64(g.RowsPerSubarray) + uint64(a.Row)
	return idx
}

// Decode expands a dense row index back to a RowAddr. Panics on an index
// outside [0, TotalRows) — the inverse of Encode's contract.
func (g Geometry) Decode(idx uint64) RowAddr {
	if idx >= uint64(g.TotalRows()) {
		panic(fmt.Sprintf("memarch: row index %d out of range", idx))
	}
	a := RowAddr{}
	a.Row = int(idx % uint64(g.RowsPerSubarray))
	idx /= uint64(g.RowsPerSubarray)
	a.Subarray = int(idx % uint64(g.SubarraysPerBank))
	idx /= uint64(g.SubarraysPerBank)
	a.Bank = int(idx % uint64(g.BanksPerChip))
	idx /= uint64(g.BanksPerChip)
	a.Rank = int(idx % uint64(g.RanksPerChannel))
	idx /= uint64(g.RanksPerChannel)
	a.Channel = int(idx)
	return a
}

// SameSubarray reports whether all addresses share channel, rank, bank and
// subarray — the precondition for an intra-subarray (SA-computed) op.
func SameSubarray(addrs ...RowAddr) bool {
	for _, a := range addrs[1:] {
		if a.Channel != addrs[0].Channel || a.Rank != addrs[0].Rank ||
			a.Bank != addrs[0].Bank || a.Subarray != addrs[0].Subarray {
			return false
		}
	}
	return true
}

// SameBank reports whether all addresses share channel, rank and bank — the
// precondition for an inter-subarray (global-row-buffer) op.
func SameBank(addrs ...RowAddr) bool {
	for _, a := range addrs[1:] {
		if a.Channel != addrs[0].Channel || a.Rank != addrs[0].Rank || a.Bank != addrs[0].Bank {
			return false
		}
	}
	return true
}

// SameRank reports whether all addresses share channel and rank — the
// precondition for an inter-bank (I/O-buffer) op. With lock-step chips the
// rank is the "chip" locus of the paper's Fig. 3(a).
func SameRank(addrs ...RowAddr) bool {
	for _, a := range addrs[1:] {
		if a.Channel != addrs[0].Channel || a.Rank != addrs[0].Rank {
			return false
		}
	}
	return true
}

// DistinctRowsBuf reports whether all addresses name pairwise distinct
// rows — the paper notes Pinatubo cannot operate on bit-vectors sharing
// one row. It sorts the encoded addresses in buf, growing it as needed,
// and returns it for reuse: a caller that keeps the buffer allocates
// nothing once it has held its largest set.
func DistinctRowsBuf(g Geometry, buf []uint64, addrs []RowAddr) (bool, []uint64) {
	keys := buf[:0]
	for _, a := range addrs {
		keys = append(keys, g.Encode(a))
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return false, keys
		}
	}
	return true, keys
}
