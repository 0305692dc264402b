package sense

import (
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"strings"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/nvm"
)

func newPCM(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOpString(t *testing.T) {
	want := map[Op]string{OpRead: "READ", OpAND: "AND", OpOR: "OR", OpXOR: "XOR", OpINV: "INV"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String()=%q want %q", int(op), op.String(), s)
		}
	}
	if !strings.HasPrefix(Op(9).String(), "Op(") {
		t.Error("unknown op string")
	}
}

func TestSenseSteps(t *testing.T) {
	if OpXOR.SenseSteps() != 2 {
		t.Error("XOR should take 2 micro-steps")
	}
	for _, op := range []Op{OpRead, OpAND, OpOR, OpINV} {
		if op.SenseSteps() != 1 {
			t.Errorf("%v should take 1 step", op)
		}
	}
}

func TestNewArrayRejectsDRAM(t *testing.T) {
	if _, err := NewArray(nvm.Get(nvm.DRAM), analog.DefaultSenseConfig(), 0); !errors.Is(err, analog.ErrNotResistive) {
		t.Fatalf("err=%v want ErrNotResistive", err)
	}
}

func TestMaxORRowsPerTech(t *testing.T) {
	cfg := analog.DefaultSenseConfig()
	pcm, _ := NewArray(nvm.Get(nvm.PCM), cfg, 0)
	if pcm.MaxORRows() != 128 {
		t.Errorf("PCM MaxORRows=%d want 128", pcm.MaxORRows())
	}
	stt, _ := NewArray(nvm.Get(nvm.STTMRAM), cfg, 0)
	if stt.MaxORRows() != 2 {
		t.Errorf("STT MaxORRows=%d want 2", stt.MaxORRows())
	}
}

func TestValidateOperands(t *testing.T) {
	a := newPCM(t)
	ok := []struct {
		op Op
		n  int
	}{
		{OpRead, 1}, {OpINV, 1}, {OpAND, 2}, {OpXOR, 2}, {OpOR, 2}, {OpOR, 128},
	}
	for _, c := range ok {
		if err := a.ValidateOperands(c.op, c.n); err != nil {
			t.Errorf("ValidateOperands(%v,%d) unexpected error: %v", c.op, c.n, err)
		}
	}
	bad := []struct {
		op Op
		n  int
	}{
		{OpRead, 2}, {OpINV, 2}, {OpAND, 3}, {OpAND, 1}, {OpXOR, 3},
		{OpOR, 1}, {OpOR, 129},
	}
	for _, c := range bad {
		if err := a.ValidateOperands(c.op, c.n); err == nil {
			t.Errorf("ValidateOperands(%v,%d) should fail", c.op, c.n)
		}
	}
	if err := a.ValidateOperands(Op(77), 1); err == nil {
		t.Error("unknown op should fail validation")
	}
}

func TestOperandErrorMessages(t *testing.T) {
	a := newPCM(t)
	err := a.ValidateOperands(OpAND, 3)
	var oe *OperandError
	if !errors.As(err, &oe) {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(err.Error(), "exactly 2") {
		t.Errorf("message %q should mention the fixed count", err)
	}
	err = a.ValidateOperands(OpOR, 500)
	if !errors.As(err, &oe) {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(err.Error(), "2..128") {
		t.Errorf("message %q should mention the range", err)
	}
}

func TestSTTRejectsMultiRowOR(t *testing.T) {
	// Paper: STT-MRAM is conservatively capped at 2-row operations.
	stt, err := NewArray(nvm.Get(nvm.STTMRAM), analog.DefaultSenseConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stt.ValidateOperands(OpOR, 4); err == nil {
		t.Error("4-row OR on STT-MRAM should be rejected")
	}
	if err := stt.ValidateOperands(OpOR, 2); err != nil {
		t.Errorf("2-row OR on STT-MRAM should pass: %v", err)
	}
}

func TestComputeWordsTruthTables(t *testing.T) {
	a := newPCM(t)
	r0 := []uint64{0b1100}
	r1 := []uint64{0b1010}
	cases := []struct {
		op   Op
		rows [][]uint64
		want uint64
	}{
		{OpRead, [][]uint64{r0}, 0b1100},
		{OpINV, [][]uint64{r0}, ^uint64(0b1100)},
		{OpAND, [][]uint64{r0, r1}, 0b1000},
		{OpOR, [][]uint64{r0, r1}, 0b1110},
		{OpXOR, [][]uint64{r0, r1}, 0b0110},
	}
	for _, c := range cases {
		out := make([]uint64, 1)
		if err := a.ComputeWordsInto(out, c.op, c.rows); err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if out[0] != c.want {
			t.Errorf("%v = %b want %b", c.op, out[0], c.want)
		}
	}
}

func TestComputeWordsMultiRowOR(t *testing.T) {
	a := newPCM(t)
	rows := make([][]uint64, 128)
	for i := range rows {
		rows[i] = []uint64{0, 0}
	}
	rows[17][0] = 1 << 5
	rows[99][1] = 1 << 63
	out := make([]uint64, 2)
	if err := a.ComputeWordsInto(out, OpOR, rows); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1<<5 || out[1] != 1<<63 {
		t.Errorf("128-row OR wrong: %x %x", out[0], out[1])
	}
}

func TestComputeWordsRowWidthMismatch(t *testing.T) {
	a := newPCM(t)
	if err := a.ComputeWordsInto(make([]uint64, 2), OpAND, [][]uint64{{1, 2}, {3}}); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestComputeWordsOperandCountError(t *testing.T) {
	a := newPCM(t)
	if err := a.ComputeWordsInto(make([]uint64, 1), OpAND, [][]uint64{{1}, {2}, {3}}); err == nil {
		t.Error("3-operand AND should error")
	}
}

func TestAnalogCrossCheckRuns(t *testing.T) {
	// With checking enabled and correct modelling, random workloads must
	// pass without panicking.
	a := newPCM(t)
	rng := rand.New(rand.NewSource(5))
	out := make([]uint64, 2)
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(127) + 2
		rows := make([][]uint64, n)
		for i := range rows {
			rows[i] = []uint64{rng.Uint64(), rng.Uint64()}
		}
		if err := a.ComputeWordsInto(out, OpOR, rows); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParamsAccessor(t *testing.T) {
	a := newPCM(t)
	if a.Params().Tech != nvm.PCM {
		t.Error("Params() wrong tech")
	}
}

// Property: the OR kernel equals a word-wise fold for every operand count
// 2..MaxORRows and every width 0..67 words, so the 4-row fold, each
// remainder length and ragged widths all run. The destination starts as
// garbage, so a kernel that folds into stale words instead of overwriting
// them fails too. The analog cross-check is off so the fold alone judges
// the kernel (TestAnalogCrossCheckRuns covers the check).
func TestPropORAgainstFold(t *testing.T) {
	a, err := NewArray(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= a.MaxORRows(); n++ {
		for w := 0; w <= 67; w++ {
			rows := make([][]uint64, n)
			for i := range rows {
				rows[i] = make([]uint64, w)
				for j := range rows[i] {
					// One set bit per word, so even at 128 rows many bits
					// come from a single row and a dropped row shows.
					rows[i][j] = 1 << rng.Intn(64)
				}
			}
			dst := make([]uint64, w)
			for j := range dst {
				dst[j] = rng.Uint64()
			}
			if err := a.ComputeWordsInto(dst, OpOR, rows); err != nil {
				t.Fatalf("%d rows x %d words: %v", n, w, err)
			}
			for j := 0; j < w; j++ {
				want := uint64(0)
				for i := 0; i < n; i++ {
					want |= rows[i][j]
				}
				if dst[j] != want {
					t.Fatalf("%d rows x %d words: word %d = %#x, fold %#x", n, w, j, dst[j], want)
				}
			}
		}
	}
}

// TestResetMatchesFreshSource pins the sampling stream: NewArray starts,
// and Reset rewinds in place to, exactly the stream of a fresh
// PCG(analogCheckSeed, 0).
func TestResetMatchesFreshSource(t *testing.T) {
	a := newPCM(t)
	same := func(what string) {
		t.Helper()
		want := randv2.New(randv2.NewPCG(analogCheckSeed, 0))
		for i := 0; i < 64; i++ {
			if g, w := a.rng.IntN(1000+i), want.IntN(1000+i); g != w {
				t.Fatalf("draw %d %s: %d, fresh PCG %d", i, what, g, w)
			}
		}
	}
	same("after NewArray")
	rows := randRows(3, 4, 9)
	if err := a.ComputeWordsInto(make([]uint64, len(rows[0])), OpOR, rows); err != nil { // advance the stream
		t.Fatal(err)
	}
	a.Reset()
	same("after Reset")
}

// BenchmarkComputeOR times the OR kernel over 2048-word (128 Kbit) rows at
// operand counts spanning the 4-row fold and its remainder, up to the PCM
// depth limit. The analog cross-check is off so only the word math runs.
func BenchmarkComputeOR(b *testing.B) {
	const words = 2048
	a, err := NewArray(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 8, 26, 128} {
		rows := randRows(n, words, 1)
		dst := make([]uint64, words)
		b.Run(fmt.Sprintf("%dx%dWords", n, words), func(b *testing.B) {
			b.SetBytes(int64(n * words * 8))
			for i := 0; i < b.N; i++ {
				if err := a.ComputeWordsInto(dst, OpOR, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
