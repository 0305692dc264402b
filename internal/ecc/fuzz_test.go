package ecc

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecode drives arbitrary (data, corruption) pairs through the (72,64)
// codec and asserts the SECDED contract: clean words decode OK, any single
// codeword-bit corruption is corrected back to the original data, and any
// double corruption is detected — never silently miscorrected.
func FuzzDecode(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0xdeadbeefcafef00d), uint8(3), uint8(70))
	f.Add(^uint64(0), uint8(64), uint8(71))
	f.Fuzz(func(t *testing.T, data uint64, a, b uint8) {
		c := Default()
		total := c.DataBits() + c.CheckBits()
		check := c.Encode(data)
		flip := func(d, ch uint64, pos int) (uint64, uint64) {
			if pos < c.DataBits() {
				return d ^ 1<<uint(pos), ch
			}
			return d, ch ^ 1<<uint(pos-c.DataBits())
		}

		if dec := c.Decode(data, check); dec.Outcome != OK || dec.Data != data {
			t.Fatalf("clean decode of %#x: %+v", data, dec)
		}

		i, j := int(a)%total, int(b)%total
		d1, c1 := flip(data, check, i)
		dec := c.Decode(d1, c1)
		if i < c.DataBits() {
			if dec.Outcome != CorrectedData || dec.Data != data {
				t.Fatalf("single data flip at %d: %+v", i, dec)
			}
		} else if dec.Outcome != CorrectedCheck || dec.Data != data {
			t.Fatalf("single check flip at %d: %+v", i, dec)
		}

		if i == j {
			return
		}
		d2, c2 := flip(d1, c1, j)
		if dec := c.Decode(d2, c2); dec.Outcome != Detected {
			t.Fatalf("double flip (%d,%d) of %#x: %+v", i, j, data, dec)
		}
	})
}

// FuzzRowCodec checks the byte-sliced (72,64) row codec against the
// bit-serial reference — the same code with its byte table off — over
// random rows at every tail width: EncodeRow's check words, then
// DecodeRow's RowResult and corrected words after 0–3 flips across the
// data and check stripes. The last data word may carry set bits past
// `bits`, as the golden result of an INV does; both paths must ignore
// them on encode and leave them in place on decode.
//
// shape packs the injection: bits 0–1 are the flip count, bit 2 confines
// every flip to one group (so 2 flips detect and 3 can miscorrect), and
// bit 3 sets junk bits past `bits` in the last data word.
func FuzzRowCodec(f *testing.F) {
	for _, bits := range []uint32{1, 63, 64, 65, 8192, 65536} {
		for shape := uint8(0); shape < 16; shape++ {
			f.Add(bits, int64(bits)*31+int64(shape), shape)
		}
	}
	for tail := uint32(1); tail < 64; tail++ {
		f.Add(128+tail, int64(tail), uint8(tail%16))
	}
	fast, ref := Default(), build(64)
	f.Fuzz(func(t *testing.T, bitsIn uint32, seed int64, shape uint8) {
		bits := 1 + int(bitsIn%65536)
		rng := rand.New(rand.NewSource(seed))
		data := make([]uint64, (bits+63)/64)
		for i := range data {
			data[i] = rng.Uint64()
		}
		if tail := uint(bits % 64); tail != 0 && shape&8 == 0 {
			data[len(data)-1] &= 1<<tail - 1
		}

		check := ref.EncodeRow(data, bits)
		if got := fast.EncodeRow(data, bits); !slices.Equal(got, check) {
			t.Fatalf("bits %d: EncodeRow table %x, bit-serial %x", bits, got, check)
		}

		// Flip positions index the data stripe [0, bits) and then the
		// check stripe [bits, bits+CheckRowBits).
		flip := func(d, ch []uint64, pos int) {
			if pos < bits {
				d[pos/64] ^= 1 << uint(pos%64)
				return
			}
			pos -= bits
			ch[pos/64] ^= 1 << uint(pos%64)
		}
		pick := func() int { return rng.Intn(bits + fast.CheckRowBits(bits)) }
		if shape&4 != 0 {
			g := rng.Intn(fast.Groups(bits))
			nb := fast.groupWidth(g, bits)
			pick = func() int {
				k := rng.Intn(nb + fast.CheckBits())
				if k < nb {
					return g*64 + k
				}
				return bits + g*fast.CheckBits() + k - nb
			}
		}
		d, ch := slices.Clone(data), slices.Clone(check)
		for k := 0; k < int(shape&3); k++ {
			flip(d, ch, pick())
		}

		dRef := slices.Clone(d)
		want := ref.DecodeRow(dRef, slices.Clone(ch), bits)
		got := fast.DecodeRow(d, ch, bits)
		if got != want {
			t.Fatalf("bits %d shape %d: DecodeRow table %+v, bit-serial %+v", bits, shape, got, want)
		}
		if !slices.Equal(d, dRef) {
			t.Fatalf("bits %d shape %d: corrected words differ from the bit-serial decode", bits, shape)
		}
	})
}

// TestRowCodecEveryFlip backs FuzzRowCodec's random flips with exhaustive
// ones: on rows whose last word carries bits past `bits`, every single
// flip across the data and check stripes, and every pair of flips inside
// the first and the last group, must decode identically on the table
// path and on the bit-serial reference.
func TestRowCodecEveryFlip(t *testing.T) {
	fast, ref := Default(), build(64)
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{1, 63, 64, 65, 200, 1024} {
		data := make([]uint64, (bits+63)/64)
		for i := range data {
			data[i] = rng.Uint64()
		}
		check := ref.EncodeRow(data, bits)
		// pos indexes the data stripe, then the check stripe.
		decode := func(pos ...int) {
			t.Helper()
			d, ch := slices.Clone(data), slices.Clone(check)
			for _, p := range pos {
				if p < bits {
					d[p/64] ^= 1 << uint(p%64)
				} else {
					ch[(p-bits)/64] ^= 1 << uint((p-bits)%64)
				}
			}
			dRef := slices.Clone(d)
			want := ref.DecodeRow(dRef, slices.Clone(ch), bits)
			if got := fast.DecodeRow(d, ch, bits); got != want || !slices.Equal(d, dRef) {
				t.Fatalf("bits %d flips %v: table %+v, bit-serial %+v", bits, pos, got, want)
			}
		}
		for p := 0; p < bits+fast.CheckRowBits(bits); p++ {
			decode(p)
		}
		cb := fast.CheckBits()
		for _, g := range []int{0, fast.Groups(bits) - 1} {
			// The group's data bits, then its check bits.
			var group []int
			for k := 0; k < fast.groupWidth(g, bits); k++ {
				group = append(group, 64*g+k)
			}
			for k := 0; k < cb; k++ {
				group = append(group, bits+g*cb+k)
			}
			for i, a := range group {
				for _, b := range group[i+1:] {
					decode(a, b)
				}
			}
		}
	}
}
