package ecc

import (
	"math/rand"
	"testing"
)

var widths = []int{8, 16, 32, 64}

func TestCodecParams(t *testing.T) {
	want := map[int]int{8: 5, 16: 6, 32: 7, 64: 8} // width -> check bits
	for w, cb := range want {
		c, err := New(w)
		if err != nil {
			t.Fatalf("New(%d): %v", w, err)
		}
		if c.DataBits() != w || c.CheckBits() != cb {
			t.Errorf("width %d: got %d data / %d check bits, want %d/%d",
				w, c.DataBits(), c.CheckBits(), w, cb)
		}
	}
	for _, bad := range []int{0, 3, 65, -8} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%d) accepted", bad)
		}
	}
	if Default().DataBits() != 64 {
		t.Error("Default is not the (72,64) code")
	}
}

func TestCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range widths {
		c, _ := New(w)
		for trial := 0; trial < 200; trial++ {
			d := rng.Uint64() & c.dataMask()
			dec := c.Decode(d, c.Encode(d))
			if dec.Outcome != OK || dec.Data != d {
				t.Fatalf("width %d: clean word %#x decoded %v/%#x", w, d, dec.Outcome, dec.Data)
			}
		}
	}
}

// TestSingleBitCorrection flips every single bit of the codeword — every
// data bit and every check bit — and requires the decoder to recover the
// data exactly.
func TestSingleBitCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range widths {
		c, _ := New(w)
		for trial := 0; trial < 50; trial++ {
			d := rng.Uint64() & c.dataMask()
			ch := c.Encode(d)
			for b := 0; b < w; b++ {
				dec := c.Decode(d^1<<uint(b), ch)
				if dec.Outcome != CorrectedData || dec.Data != d || dec.Pos != b {
					t.Fatalf("width %d: data bit %d flip not corrected: %+v", w, b, dec)
				}
			}
			for b := 0; b < c.CheckBits(); b++ {
				dec := c.Decode(d, ch^1<<uint(b))
				if dec.Outcome != CorrectedCheck || dec.Data != d {
					t.Fatalf("width %d: check bit %d flip not absorbed: %+v", w, b, dec)
				}
			}
		}
	}
}

// TestDoubleBitDetection exercises every pair of codeword bit flips for the
// 8-bit code (exhaustive) and random pairs for the wider ones: all must be
// Detected, never silently miscorrected.
func TestDoubleBitDetection(t *testing.T) {
	check := func(t *testing.T, c *Codec, d uint64, i, j int) {
		t.Helper()
		data, ch := d, c.Encode(d)
		flip := func(b int) {
			if b < c.DataBits() {
				data ^= 1 << uint(b)
			} else {
				ch ^= 1 << uint(b-c.DataBits())
			}
		}
		flip(i)
		flip(j)
		if dec := c.Decode(data, ch); dec.Outcome != Detected {
			t.Fatalf("double flip (%d,%d) of %#x decoded %v", i, j, d, dec.Outcome)
		}
	}
	c8, _ := New(8)
	total := c8.DataBits() + c8.CheckBits()
	for d := uint64(0); d < 256; d += 17 {
		for i := 0; i < total; i++ {
			for j := i + 1; j < total; j++ {
				check(t, c8, d, i, j)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{16, 32, 64} {
		c, _ := New(w)
		total := c.DataBits() + c.CheckBits()
		for trial := 0; trial < 2000; trial++ {
			d := rng.Uint64() & c.dataMask()
			i := rng.Intn(total)
			j := rng.Intn(total - 1)
			if j >= i {
				j++
			}
			check(t, c, d, i, j)
		}
	}
}

// TestXorLinearity pins the GF(2) linearity the controller's fast path
// exploits: check bits of an XOR are the XOR of the check bits, and INV is
// the affine case (XOR with all-ones).
func TestXorLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range widths {
		c, _ := New(w)
		for trial := 0; trial < 200; trial++ {
			a := rng.Uint64() & c.dataMask()
			b := rng.Uint64() & c.dataMask()
			if c.Encode(a^b) != c.Encode(a)^c.Encode(b) {
				t.Fatalf("width %d: Encode not linear for %#x ^ %#x", w, a, b)
			}
			if c.Encode(^a&c.dataMask()) != c.Encode(a)^c.Encode(c.dataMask()) {
				t.Fatalf("width %d: INV not affine for %#x", w, a)
			}
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range widths {
		c, _ := New(w)
		for _, bits := range []int{w, 3 * w, 1024, 1000, 64*7 + 13} {
			if bits < w {
				continue
			}
			nw := (bits + 63) / 64
			data := make([]uint64, nw)
			for i := range data {
				data[i] = rng.Uint64()
			}
			// Zero the tail beyond `bits`, as stored rows are.
			if tail := uint(bits % 64); tail != 0 {
				data[nw-1] &= 1<<tail - 1
			}
			check := c.EncodeRow(data, bits)
			if len(check) != c.CheckWords(bits) {
				t.Fatalf("width %d bits %d: %d check words, want %d",
					w, bits, len(check), c.CheckWords(bits))
			}
			if r := c.DecodeRow(data, check, bits); r != (RowResult{}) {
				t.Fatalf("width %d bits %d: clean row decoded %+v", w, bits, r)
			}
		}
	}
}

// TestRowSingleBitCorrection flips one stored data bit per group across a
// row and checks DecodeRow repairs the row in place.
func TestRowSingleBitCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := Default()
	const bits = 1024
	data := make([]uint64, bits/64)
	for i := range data {
		data[i] = rng.Uint64()
	}
	want := append([]uint64(nil), data...)
	check := c.EncodeRow(data, bits)
	flips := 0
	for g := 0; g < c.Groups(bits); g++ {
		pos := g*c.DataBits() + rng.Intn(c.DataBits())
		data[pos/64] ^= 1 << uint(pos%64)
		flips++
	}
	r := c.DecodeRow(data, check, bits)
	if r.CorrectedData != flips || r.Detected != 0 {
		t.Fatalf("corrected %d of %d flips, detected %d", r.CorrectedData, flips, r.Detected)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("word %d not repaired: %#x != %#x", i, data[i], want[i])
		}
	}
}

// TestRowDoubleBitDetected flips two data bits in one group: the group must
// come back Detected with the rest of the row untouched.
func TestRowDoubleBitDetected(t *testing.T) {
	c := Default()
	const bits = 512
	data := make([]uint64, bits/64)
	for i := range data {
		data[i] = 0xdeadbeefcafef00d * uint64(i+1)
	}
	check := c.EncodeRow(data, bits)
	data[2] ^= 0b101 // two flips in group 2
	r := c.DecodeRow(data, check, bits)
	if r.Detected != 1 || r.CorrectedData != 0 {
		t.Fatalf("want exactly one detected group, got %+v", r)
	}
}

// TestTailPaddingCorrection corrupts a check group so the syndrome points
// into the tail group's zero padding; the decoder must refuse the
// impossible correction.
func TestTailPaddingCorrection(t *testing.T) {
	c := Default()
	bits := 64 + 8 // tail group holds 8 real bits of the 64-bit group
	data := []uint64{0x0123456789abcdef, 0x5a}
	check := c.EncodeRow(data, bits)
	// Find a check corruption whose syndrome names a padding bit (Pos >= 8).
	cb := c.CheckBits()
	found := false
	for m := uint64(1); m < 1<<uint(cb); m++ {
		ch := append([]uint64(nil), check...)
		d := append([]uint64(nil), data...)
		orig := getBits(ch, cb, cb)
		setBits(ch, cb, cb, orig^m)
		dec := c.Decode(getBits(d, 64, 8), orig^m)
		if dec.Outcome == CorrectedData && dec.Pos >= 8 {
			r := c.DecodeRow(d, ch, bits)
			if r.Detected != 1 {
				t.Fatalf("padding correction accepted: %+v", r)
			}
			if d[1] != data[1] {
				t.Fatal("padding correction mutated the tail word")
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no single check corruption maps to padding for this data")
	}
}

func TestBitPacking(t *testing.T) {
	words := make([]uint64, 3)
	setBits(words, 60, 9, 0x1ff) // spans words[0] and words[1]
	if words[0] != 0xf<<60 || words[1] != 0x1f {
		t.Fatalf("setBits span wrong: %#x %#x", words[0], words[1])
	}
	if got := getBits(words, 60, 9); got != 0x1ff {
		t.Fatalf("getBits span = %#x", got)
	}
	setBits(words, 60, 9, 0)
	if words[0] != 0 || words[1] != 0 {
		t.Fatalf("setBits clear wrong: %#x %#x", words[0], words[1])
	}
	words[2] = ^uint64(0)
	setBits(words, 128, 64, 0x1234)
	if words[2] != 0x1234 {
		t.Fatalf("full-word setBits = %#x", words[2])
	}
}

// BenchmarkEncodeRow and BenchmarkDecodeRow time the row codec on one
// 64 Kbit row: "table" is the byte-sliced path every 64-bit Codec takes,
// "bitserial" the same code with its table off, the reference path.
// DecodeRow runs on a clean row, the common case, where the table path
// never calls Decode.
const benchRowBits = 1 << 16

// benchCheck keeps EncodeRow's result live so the call is not optimised
// away.
var benchCheck []uint64

func benchCodecs(b *testing.B, run func(b *testing.B, c *Codec, data []uint64)) {
	rng := rand.New(rand.NewSource(8))
	data := make([]uint64, benchRowBits/64)
	for i := range data {
		data[i] = rng.Uint64()
	}
	for _, bc := range []struct {
		name string
		c    *Codec
	}{{"table", Default()}, {"bitserial", build(64)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(benchRowBits / 8)
			run(b, bc.c, data)
		})
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	benchCodecs(b, func(b *testing.B, c *Codec, data []uint64) {
		for i := 0; i < b.N; i++ {
			benchCheck = c.EncodeRow(data, benchRowBits)
		}
	})
}

func BenchmarkDecodeRow(b *testing.B) {
	benchCodecs(b, func(b *testing.B, c *Codec, data []uint64) {
		check := c.EncodeRow(data, benchRowBits)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := c.DecodeRow(data, check, benchRowBits); r != (RowResult{}) {
				b.Fatalf("clean row decoded %+v", r)
			}
		}
	})
}
