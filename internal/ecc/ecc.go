// Package ecc implements the SECDED (single-error-correct,
// double-error-detect) code the Pinatubo reproduction stores in dedicated
// spare columns of each rank row: an extended Hamming code — Hamming check
// bits plus one overall parity bit — over fixed-width data word groups,
// (72,64)-style at the default 64-bit width.
//
// The codec is pure arithmetic: it knows nothing about rows, latency or
// energy. The controller (internal/pim) owns where the check bits live and
// what sensing, programming and syndrome decoding cost; the scheduler
// (internal/pimrt) owns when to decode and when a detected-uncorrectable
// syndrome escalates to the read-back degradation ladder.
//
// Linearity matters to the cost model above: the code is linear over GF(2),
// so Encode(a^b) == Encode(a)^Encode(b) — the spare-column sense amplifiers
// can compute the check bits of an XOR (and of INV, which is XOR with
// all-ones) directly from the operands' stored check bits. OR and AND are
// not GF(2)-linear, so their check bits must be regenerated from the result
// stream at the write drivers. TestXorLinearity pins the property.
//
// Linearity also makes the row codec cheap on the host. The overall parity
// bit is linear too, so the 8 check bits of a (72,64) group are the XOR of
// 8 table lookups, one 256-entry table per data byte, and group g's check
// bits are byte g of the packed check words. EncodeRow and DecodeRow take
// that byte-sliced path at the 64-bit width; DecodeRow falls back to the
// bit-serial Decode only for a group whose recomputed check byte differs
// from the stored one. The other widths run the bit-serial Encode/Decode,
// which stay the reference FuzzRowCodec checks the tables against.
package ecc

import (
	"fmt"
	"math/bits"
	"sync"
)

// Codec is one extended-Hamming SECDED code over dataBits-wide word groups.
// Construct with New; the zero value is unusable.
type Codec struct {
	dataBits int
	hamming  int // Hamming check bits (syndrome width)
	n        int // codeword length excluding the overall parity bit
	// masks[i] is the data-bit coverage of Hamming check bit i.
	masks []uint64
	// posToData maps a codeword position (1-based) to its data-bit index;
	// -1 for check-bit (power-of-two) positions.
	posToData []int
	// dataToPos is the inverse map.
	dataToPos []int
	// table is the byte-sliced encoder of the 64-bit code, shared by every
	// 64-bit Codec; nil at the other widths.
	table *byteTable
}

// byteTable holds Encode(v << 8b) at [b][v] for the (72,64) code: by
// linearity, a data word's check byte is the XOR of its 8 bytes' entries.
type byteTable [8][256]uint8

// encode returns the 8 check bits of a 64-bit data group.
func (t *byteTable) encode(d uint64) uint64 {
	return uint64(t[0][uint8(d)] ^ t[1][uint8(d>>8)] ^ t[2][uint8(d>>16)] ^ t[3][uint8(d>>24)] ^
		t[4][uint8(d>>32)] ^ t[5][uint8(d>>40)] ^ t[6][uint8(d>>48)] ^ t[7][uint8(d>>56)])
}

// table64 builds the byte table once per process: every VerifyECC System
// constructs a Codec, sandbox-pool misses and Plan samples included, and
// all of them share the one read-only table.
var table64 = sync.OnceValue(func() *byteTable {
	c := build(64)
	t := new(byteTable)
	for b := range t {
		for v := range t[b] {
			t[b][v] = uint8(c.Encode(uint64(v) << (8 * b)))
		}
	}
	return t
})

// New builds a codec over dataBits-wide groups (4..64). The standard widths
// are 8 (13,8), 16 (22,16), 32 (39,32) and 64 bits — the (72,64) code of
// ECC DIMMs.
func New(dataBits int) (*Codec, error) {
	if dataBits < 4 || dataBits > 64 {
		return nil, fmt.Errorf("ecc: data width %d outside 4..64", dataBits)
	}
	c := build(dataBits)
	if dataBits == 64 {
		c.table = table64()
	}
	return c, nil
}

// build derives the bit-serial code tables of a validated width.
func build(dataBits int) *Codec {
	h := 2
	for 1<<h < dataBits+h+1 {
		h++
	}
	c := &Codec{
		dataBits:  dataBits,
		hamming:   h,
		n:         dataBits + h,
		masks:     make([]uint64, h),
		posToData: make([]int, dataBits+h+1),
		dataToPos: make([]int, dataBits),
	}
	d := 0
	for p := 1; p <= c.n; p++ {
		if p&(p-1) == 0 {
			c.posToData[p] = -1
			continue
		}
		c.posToData[p] = d
		c.dataToPos[d] = p
		for i := 0; i < h; i++ {
			if p&(1<<i) != 0 {
				c.masks[i] |= 1 << uint(d)
			}
		}
		d++
	}
	return c
}

// Default returns the (72,64) codec used by the controller. Panics only if
// New rejects the built-in width — impossible unless New's validation
// changes out from under this constant.
func Default() *Codec {
	c, err := New(64)
	if err != nil {
		panic(err) // 64 is a valid width
	}
	return c
}

// DataBits returns the data width of one word group.
func (c *Codec) DataBits() int { return c.dataBits }

// CheckBits returns the check bits per word group (Hamming + overall
// parity): 8 for the 64-bit code.
func (c *Codec) CheckBits() int { return c.hamming + 1 }

func (c *Codec) dataMask() uint64 {
	if c.dataBits == 64 {
		return ^uint64(0)
	}
	return 1<<uint(c.dataBits) - 1
}

func parity64(x uint64) uint64 { return uint64(bits.OnesCount64(x) & 1) }

// Encode returns the check bits of one data group: Hamming check bit i in
// bit i, the overall parity bit in bit CheckBits()-1.
func (c *Codec) Encode(data uint64) uint64 {
	data &= c.dataMask()
	var check uint64
	for i, m := range c.masks {
		check |= parity64(data&m) << uint(i)
	}
	check |= (parity64(data) ^ parity64(check)) << uint(c.hamming)
	return check
}

// Outcome classifies one decoded group.
type Outcome int

const (
	// OK: syndrome clean, data returned as stored.
	OK Outcome = iota
	// CorrectedData: a single data-bit error was corrected.
	CorrectedData
	// CorrectedCheck: a single check-bit error was absorbed; the data was
	// intact.
	CorrectedCheck
	// Detected: a double-bit (or syndrome-invalid) error — uncorrectable.
	// The data cannot be trusted.
	Detected
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case CorrectedData:
		return "corrected-data"
	case CorrectedCheck:
		return "corrected-check"
	case Detected:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Decoded is the result of decoding one group.
type Decoded struct {
	Outcome Outcome
	// Data is the (possibly corrected) data group. Meaningless when
	// Outcome is Detected.
	Data uint64
	// Pos is the corrected data-bit index for CorrectedData.
	Pos int
}

// Decode checks one stored data group against its stored check bits and
// applies the standard SECDED syndrome cases.
func (c *Codec) Decode(data, check uint64) Decoded {
	data &= c.dataMask()
	check &= 1<<uint(c.hamming+1) - 1
	var expect uint64
	for i, m := range c.masks {
		expect |= parity64(data&m) << uint(i)
	}
	recvH := check & (1<<uint(c.hamming) - 1)
	s := expect ^ recvH
	// Overall parity over data + Hamming bits + the parity bit itself:
	// odd means an odd number of bit errors (i.e. exactly one, under the
	// double-error bound).
	odd := parity64(data)^parity64(recvH)^(check>>uint(c.hamming)&1) == 1
	switch {
	case s == 0 && !odd:
		return Decoded{Outcome: OK, Data: data}
	case s == 0:
		// Only the overall parity bit flipped; data and Hamming bits agree.
		return Decoded{Outcome: CorrectedCheck, Data: data}
	case odd:
		if s&(s-1) == 0 {
			// The syndrome names a power-of-two position: a Hamming check
			// bit itself flipped.
			return Decoded{Outcome: CorrectedCheck, Data: data}
		}
		if int(s) <= c.n {
			if d := c.posToData[s]; d >= 0 {
				return Decoded{Outcome: CorrectedData, Data: data ^ 1<<uint(d), Pos: d}
			}
		}
		// Syndrome points outside the codeword: at least three errors.
		return Decoded{Outcome: Detected, Data: data}
	default:
		// Non-zero syndrome with even parity: the double-bit signature.
		return Decoded{Outcome: Detected, Data: data}
	}
}

// Groups returns how many word groups cover `bits` data bits.
func (c *Codec) Groups(bits int) int { return (bits + c.dataBits - 1) / c.dataBits }

// CheckRowBits returns the spare-column bits backing `bits` data bits —
// the row-level storage overhead (bits/8 for the 64-bit code).
func (c *Codec) CheckRowBits(bits int) int { return c.Groups(bits) * c.CheckBits() }

// CheckWords returns how many packed uint64 words hold the check bits of
// `bits` data bits.
func (c *Codec) CheckWords(bits int) int { return (c.CheckRowBits(bits) + 63) / 64 }

// groupWidth returns the data width of group g of a bits-long vector (the
// tail group may be partial; its padding encodes as zeros).
func (c *Codec) groupWidth(g, bits int) int {
	if w := bits - g*c.dataBits; w < c.dataBits {
		return w
	}
	return c.dataBits
}

// EncodeRow computes the packed spare-column check words of the first
// `bits` bits of data: group g's check bits sit at bit offset
// g*CheckBits() of the returned slice. Data bits at or past `bits` are
// ignored.
func (c *Codec) EncodeRow(data []uint64, bits int) []uint64 {
	out := make([]uint64, c.CheckWords(bits))
	if c.table != nil {
		for w := range out {
			out[w] = c.table.checkWord(data, w, bits)
		}
		return out
	}
	cb := c.CheckBits()
	for g := 0; g < c.Groups(bits); g++ {
		d := getBits(data, g*c.dataBits, c.groupWidth(g, bits))
		setBits(out, g*cb, cb, c.Encode(d))
	}
	return out
}

// checkWord returns check word w of a (72,64) row: byte i holds the check
// bits of data word 8w+i, for every group below `bits`. The tail group is
// masked to its real bits and bytes past the last group are zero.
func (t *byteTable) checkWord(data []uint64, w, bits int) uint64 {
	if (w+1)*512 <= bits {
		d := data[8*w : 8*w+8]
		return t.encode(d[0]) | t.encode(d[1])<<8 | t.encode(d[2])<<16 | t.encode(d[3])<<24 |
			t.encode(d[4])<<32 | t.encode(d[5])<<40 | t.encode(d[6])<<48 | t.encode(d[7])<<56
	}
	var word uint64
	for g := 8 * w; g*64 < bits; g++ {
		d := data[g]
		if r := bits - g*64; r < 64 {
			d &= 1<<uint(r) - 1
		}
		word |= t.encode(d) << (8 * (g - 8*w))
	}
	return word
}

// RowResult summarises decoding one row.
type RowResult struct {
	CorrectedData  int // data bits corrected in place
	CorrectedCheck int // check-bit errors absorbed (data intact)
	Detected       int // uncorrectable groups
}

// Clean reports whether every group decoded without a detected-
// uncorrectable syndrome.
func (r RowResult) Clean() bool { return r.Detected == 0 }

// DecodeRow decodes every group of the first `bits` bits of data against
// the packed check words, correcting single data-bit errors in data in
// place. A correction that names a bit inside a tail group's zero padding
// is physically impossible and counts as Detected.
func (c *Codec) DecodeRow(data, check []uint64, bits int) RowResult {
	var out RowResult
	cb, groups := c.CheckBits(), c.Groups(bits)
	if c.table != nil {
		for w := range check[:c.CheckWords(bits)] {
			// A recomputed check byte equal to the stored one is exactly
			// Decode's OK case: only a differing byte needs the syndrome.
			diff := c.table.checkWord(data, w, bits) ^ check[w]
			for i := 0; diff != 0; i, diff = i+1, diff>>8 {
				if g := 8*w + i; diff&0xff != 0 && g < groups {
					nb := c.groupWidth(g, bits)
					c.decodeGroup(&out, data, g, nb, getBits(data, 64*g, nb), check[w]>>(8*i)&0xff)
				}
			}
		}
		return out
	}
	for g := 0; g < groups; g++ {
		nb := c.groupWidth(g, bits)
		c.decodeGroup(&out, data, g, nb, getBits(data, g*c.dataBits, nb), getBits(check, g*cb, cb))
	}
	return out
}

// decodeGroup decodes group g — its nb real data bits d against its check
// bits ch — into out, writing a data correction back into data.
func (c *Codec) decodeGroup(out *RowResult, data []uint64, g, nb int, d, ch uint64) {
	dec := c.Decode(d, ch)
	switch dec.Outcome {
	case OK:
	case CorrectedCheck:
		out.CorrectedCheck++
	case CorrectedData:
		if dec.Pos >= nb {
			out.Detected++
			return
		}
		out.CorrectedData++
		setBits(data, g*c.dataBits, nb, dec.Data)
	case Detected:
		out.Detected++
	}
}

// getBits extracts n (≤ 64) bits at bit offset off from a packed word
// slice.
func getBits(words []uint64, off, n int) uint64 {
	wi, bo := off/64, uint(off%64)
	v := words[wi] >> bo
	if bo != 0 && wi+1 < len(words) {
		v |= words[wi+1] << (64 - bo)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// setBits stores the low n (≤ 64) bits of v at bit offset off.
func setBits(words []uint64, off, n int, v uint64) {
	mask := ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
		v &= mask
	}
	wi, bo := off/64, uint(off%64)
	words[wi] = words[wi]&^(mask<<bo) | v<<bo
	if bo != 0 && n > int(64-bo) {
		words[wi+1] = words[wi+1]&^(mask>>(64-bo)) | v>>(64-bo)
	}
}
