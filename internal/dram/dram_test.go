package dram

import (
	"math/rand"
	"strings"
	"testing"

	"pinatubo/internal/backend"
	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// testGeo is a deliberately small organisation: 256-bit rows, 64-bit sense
// width (2 column groups for the 128-bit requests below), 32 rows per
// subarray — enough for the compute group, the scratch row and data.
func testGeo() memarch.Geometry {
	return memarch.Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     1,
		BanksPerChip:     1,
		SubarraysPerBank: 1,
		MatsPerSubarray:  1,
		RowsPerSubarray:  32,
		MatRowBits:       256,
		MuxRatio:         4,
	}
}

func newBackend(t *testing.T) *Backend {
	t.Helper()
	b, err := New(nvm.Get(nvm.DRAM), testGeo())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// makeReq builds an intra request over nsrc operand rows (rows 0..nsrc-1
// of subarray 0).
func makeReq(op sense.Op, nsrc, bits int) *backend.IntraRequest {
	srcs := make([]memarch.RowAddr, nsrc)
	for i := range srcs {
		srcs[i] = memarch.RowAddr{Row: i}
	}
	return &backend.IntraRequest{
		Op:     op,
		Srcs:   srcs,
		Bits:   bits,
		Geo:    testGeo(),
		Energy: &energy.Meter{},
	}
}

// makeRows returns nsrc operand rows of bits bits with deterministic
// random contents.
func makeRows(nsrc, bits int) [][]uint64 {
	rng := rand.New(rand.NewSource(21))
	rows := make([][]uint64, nsrc)
	for i := range rows {
		rows[i] = make([]uint64, (bits+63)/64)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64()
		}
	}
	return rows
}

func TestNewRejects(t *testing.T) {
	if _, err := New(nvm.Get(nvm.PCM), testGeo()); err == nil {
		t.Error("PCM parameters accepted, want error")
	}
	small := testGeo()
	small.RowsPerSubarray = ComputeRows + 2
	if _, err := New(nvm.Get(nvm.DRAM), small); err == nil {
		t.Error("geometry with no data rows accepted, want error")
	}
}

func TestCaps(t *testing.T) {
	caps := newBackend(t).Caps()
	want := backend.Caps{MaxORRows: 2, VotedSensing: false, ComputeRows: 7, FaultInjection: false}
	if caps != want {
		t.Errorf("Caps() = %+v, want %+v", caps, want)
	}
}

func TestValidateOperands(t *testing.T) {
	b := newBackend(t)
	cases := []struct {
		op sense.Op
		n  int
		ok bool
	}{
		{sense.OpRead, 1, true},
		{sense.OpRead, 2, false},
		{sense.OpINV, 1, true},
		{sense.OpINV, 2, false},
		{sense.OpAND, 2, true},
		{sense.OpAND, 3, false},
		{sense.OpOR, 2, true},
		{sense.OpOR, 1, false},
		{sense.OpOR, 3, false}, // pairwise only: deep ORs chain upstream
		{sense.OpXOR, 2, true},
		{sense.OpXOR, 1, false},
		{sense.Op(99), 1, false},
	}
	for _, c := range cases {
		err := b.ValidateOperands(c.op, c.n)
		if c.ok && err != nil {
			t.Errorf("ValidateOperands(%v, %d) = %v, want nil", c.op, c.n, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ValidateOperands(%v, %d) = nil, want error", c.op, c.n)
		}
	}
}

func TestComputeIntoMatchesHost(t *testing.T) {
	b := newBackend(t)
	cases := []struct {
		op     sense.Op
		nsrc   int
		golden func(rows [][]uint64, i int) uint64
	}{
		{sense.OpRead, 1, func(r [][]uint64, i int) uint64 { return r[0][i] }},
		{sense.OpINV, 1, func(r [][]uint64, i int) uint64 { return ^r[0][i] }},
		{sense.OpAND, 2, func(r [][]uint64, i int) uint64 { return r[0][i] & r[1][i] }},
		{sense.OpOR, 2, func(r [][]uint64, i int) uint64 { return r[0][i] | r[1][i] }},
		{sense.OpXOR, 2, func(r [][]uint64, i int) uint64 { return r[0][i] ^ r[1][i] }},
	}
	for _, c := range cases {
		rows := makeRows(c.nsrc, 128)
		out := make([]uint64, 2)
		if err := b.ComputeInto(out, c.op, rows); err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		for i, got := range out {
			if want := c.golden(rows, i); got != want {
				t.Errorf("%v word %d: %x want %x", c.op, i, got, want)
			}
		}
	}
	if err := b.ComputeInto(make([]uint64, 2), sense.OpAND, makeRows(1, 128)); err == nil {
		t.Error("ComputeInto with wrong operand count accepted, want error")
	}
}

// kindCounts tallies the command kinds of a lowered sequence.
func kindCounts(cmds []ddr.Cmd) map[ddr.CmdKind]int {
	m := map[ddr.CmdKind]int{}
	for _, c := range cmds {
		m[c.Kind]++
	}
	return m
}

// TestLowerIntraCommandShapes pins the exact command structure of every
// lowering at 2 column groups (128 bits over a 64-bit sense width):
// an open is ACT + 2×SENSE, an AAP adds WBACK + PRE, a TRA is ACT-TRA +
// 2×SENSE. The controller appends the write-back and final PRE, so each
// sequence must replay cleanly against the DDR protocol checker once
// those are appended — and must end with the result amplified in the SAs
// (its last command a SENSE).
func TestLowerIntraCommandShapes(t *testing.T) {
	const groups = 2
	cases := []struct {
		op   sense.Op
		nsrc int
		want map[ddr.CmdKind]int
	}{
		// READ: one open.
		{sense.OpRead, 1, map[ddr.CmdKind]int{
			ddr.CmdAct: 1, ddr.CmdSense: groups}},
		// NOT: AAP through the DCC row, then open it.
		{sense.OpINV, 1, map[ddr.CmdKind]int{
			ddr.CmdAct: 2, ddr.CmdSense: 2 * groups, ddr.CmdWBack: 1, ddr.CmdPre: 1}},
		// AND/OR: stage a, b and a control row (3 AAPs), one TRA.
		{sense.OpAND, 2, map[ddr.CmdKind]int{
			ddr.CmdAct: 3, ddr.CmdActTRA: 1, ddr.CmdSense: 4 * groups,
			ddr.CmdWBack: 3, ddr.CmdPre: 3}},
		{sense.OpOR, 2, map[ddr.CmdKind]int{
			ddr.CmdAct: 3, ddr.CmdActTRA: 1, ddr.CmdSense: 4 * groups,
			ddr.CmdWBack: 3, ddr.CmdPre: 3}},
		// XOR: 11 AAPs and 3 TRAs (two partial AND terms, final OR);
		// the two intermediate TRAs close their group (2 extra PREs).
		{sense.OpXOR, 2, map[ddr.CmdKind]int{
			ddr.CmdAct: 11, ddr.CmdActTRA: 3, ddr.CmdSense: 14 * groups,
			ddr.CmdWBack: 11, ddr.CmdPre: 13}},
	}
	b := newBackend(t)
	for _, c := range cases {
		req := makeReq(c.op, c.nsrc, 128)
		cmds, err := b.LowerIntra(req, nil)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if n := b.IntraLen(req); n != len(cmds) {
			t.Errorf("%v: IntraLen %d, LowerIntra emitted %d commands", c.op, n, len(cmds))
		}
		got := kindCounts(cmds)
		for k, n := range c.want {
			if got[k] != n {
				t.Errorf("%v: %d %v commands, want %d", c.op, got[k], k, n)
			}
		}
		for k, n := range got {
			if c.want[k] == 0 && n > 0 {
				t.Errorf("%v: unexpected %v commands (%d)", c.op, k, n)
			}
		}
		if last := cmds[len(cmds)-1].Kind; last != ddr.CmdSense {
			t.Errorf("%v: last command %v, want SENSE (result must be left in the SAs)", c.op, last)
		}
		// Controller epilogue: write the result back, precharge everything.
		closed := append(append([]ddr.Cmd{}, cmds...),
			ddr.Cmd{Kind: ddr.CmdWBack, Addr: memarch.RowAddr{Row: 20}},
			ddr.Cmd{Kind: ddr.CmdPre})
		if err := ddr.NewBankState().Validate(closed); err != nil {
			t.Errorf("%v: lowered sequence violates the DDR protocol: %v", c.op, err)
		}
		if req.Energy.Total() <= 0 {
			t.Errorf("%v: no energy charged", c.op)
		}
	}
}

// TestLowerIntraEnergyOrdering checks that pricing tracks work: XOR (3
// TRAs, 11 copies) must cost more than AND (1 TRA, 3 copies), which must
// cost more than a plain read.
func TestLowerIntraEnergyOrdering(t *testing.T) {
	b := newBackend(t)
	cost := func(op sense.Op, nsrc int) float64 {
		req := makeReq(op, nsrc, 128)
		if _, err := b.LowerIntra(req, nil); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		return req.Energy.Total()
	}
	read := cost(sense.OpRead, 1)
	and := cost(sense.OpAND, 2)
	xor := cost(sense.OpXOR, 2)
	if !(read > 0 && and > read && xor > and) {
		t.Errorf("energy ordering violated: read=%g and=%g xor=%g", read, and, xor)
	}
}

func TestLowerIntraRejections(t *testing.T) {
	b := newBackend(t)

	// Operand rows inside the reserved compute group would be clobbered
	// by the lowering's own staging.
	req := makeReq(sense.OpAND, 2, 128)
	req.Srcs[1].Row = testGeo().RowsPerSubarray - 1 - ComputeRows
	if _, err := b.LowerIntra(req, nil); err == nil {
		t.Error("operand in the compute-row group accepted, want error")
	} else if !strings.Contains(err.Error(), "compute-row") {
		t.Errorf("error %q does not explain the reserved range", err)
	}

	req = makeReq(sense.Op(99), 1, 128)
	if _, err := b.LowerIntra(req, nil); err == nil {
		t.Error("unknown op accepted, want error")
	}
}
