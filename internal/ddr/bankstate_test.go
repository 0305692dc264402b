package ddr

import (
	"strings"
	"testing"

	"pinatubo/internal/memarch"
)

func addr(sub, row int) memarch.RowAddr {
	return memarch.RowAddr{Subarray: sub, Row: row}
}

func TestValidMultiRowSequence(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdMRS},
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdActLatch, Addr: addr(0, 1)},
		{Kind: CmdActLatch, Addr: addr(0, 2)},
		{Kind: CmdSense, Addr: addr(0, 0)},
		{Kind: CmdWBack, Addr: addr(0, 5)},
		{Kind: CmdPre},
	}
	if err := NewBankState().Validate(cmds); err != nil {
		t.Fatal(err)
	}
}

func TestActWithoutPreRejected(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 1)}, // second full ACT, no PRE
		{Kind: CmdPre},
	}
	err := NewBankState().Validate(cmds)
	if err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("err=%v", err)
	}
}

func TestLatchWithoutResetRejected(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdActLatch, Addr: addr(0, 1)},
		{Kind: CmdPre},
	}
	if err := NewBankState().Validate(cmds); err == nil {
		t.Fatal("latch without RESET accepted")
	}
}

func TestLatchBeforeActRejected(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdActLatch, Addr: addr(0, 1)},
	}
	if err := NewBankState().Validate(cmds); err == nil {
		t.Fatal("latch before the biasing ACT accepted")
	}
}

func TestDoubleLatchRejected(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdActLatch, Addr: addr(0, 0)},
	}
	if err := NewBankState().Validate(cmds); err == nil {
		t.Fatal("double latch accepted")
	}
}

func TestSenseWithoutOpenRowsRejected(t *testing.T) {
	cmds := []Cmd{{Kind: CmdSense, Addr: addr(0, 0)}}
	if err := NewBankState().Validate(cmds); err == nil {
		t.Fatal("sense on closed subarray accepted")
	}
}

func TestDanglingOpenRowsRejected(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdSense, Addr: addr(0, 0)},
		// no PRE
	}
	err := NewBankState().Validate(cmds)
	if err == nil || !strings.Contains(err.Error(), "open rows") {
		t.Fatalf("err=%v", err)
	}
}

func TestIndependentSubarrays(t *testing.T) {
	// Serial reads from different subarrays are legal without intervening
	// PRE (each subarray has its own row state).
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdSense, Addr: addr(0, 0)},
		{Kind: CmdLWLReset, Addr: addr(1, 0)},
		{Kind: CmdAct, Addr: addr(1, 0)},
		{Kind: CmdSense, Addr: addr(1, 0)},
		{Kind: CmdPre},
	}
	if err := NewBankState().Validate(cmds); err != nil {
		t.Fatal(err)
	}
}

func TestResetReopensSubarray(t *testing.T) {
	// RESET closes the subarray's rows, so a fresh ACT is legal.
	cmds := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdSense, Addr: addr(0, 0)},
		{Kind: CmdLWLReset, Addr: addr(0, 0)},
		{Kind: CmdAct, Addr: addr(0, 7)},
		{Kind: CmdSense, Addr: addr(0, 7)},
		{Kind: CmdPre},
	}
	if err := NewBankState().Validate(cmds); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommandRejected(t *testing.T) {
	if err := NewBankState().Validate([]Cmd{{Kind: CmdKind(42)}}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestOpenRowsAccounting(t *testing.T) {
	s := NewBankState()
	steps := []Cmd{
		{Kind: CmdLWLReset, Addr: addr(3, 0)},
		{Kind: CmdAct, Addr: addr(3, 0)},
		{Kind: CmdActLatch, Addr: addr(3, 1)},
	}
	for _, c := range steps {
		if err := s.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.OpenRows(addr(3, 0)); got != 2 {
		t.Errorf("OpenRows=%d want 2", got)
	}
	if !s.AnyOpen() {
		t.Error("AnyOpen=false")
	}
	if err := s.Apply(Cmd{Kind: CmdPre}); err != nil {
		t.Fatal(err)
	}
	if s.AnyOpen() {
		t.Error("PRE did not close rows")
	}
}

// TestActTRAProtocol: a triple-row activation behaves like a full ACT at
// the protocol level — it needs its subarray precharged, opens the
// addressed row (so SENSE is legal), and a second activation into the
// same subarray without a PRE is rejected.
func TestActTRAProtocol(t *testing.T) {
	cmds := []Cmd{
		{Kind: CmdActTRA, Addr: addr(0, 30)},
		{Kind: CmdSense, Addr: addr(0, 30)},
		{Kind: CmdWBack, Addr: addr(0, 5)},
		{Kind: CmdPre},
	}
	if err := NewBankState().Validate(cmds); err != nil {
		t.Fatal(err)
	}
	bad := []Cmd{
		{Kind: CmdAct, Addr: addr(0, 0)},
		{Kind: CmdActTRA, Addr: addr(0, 30)}, // subarray still open
		{Kind: CmdPre},
	}
	err := NewBankState().Validate(bad)
	if err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("err=%v", err)
	}
}

// TestProtocolCheckZeroAllocs pins that a reused checker allocates
// nothing: a warm Validate of a 128-row intra-subarray OR sequence (MRS,
// LWL reset, 128 activations, sense steps, write-back, precharge).
func TestProtocolCheckZeroAllocs(t *testing.T) {
	a := memarch.RowAddr{Bank: 1, Subarray: 2}
	cmds := []Cmd{{Kind: CmdMRS}, {Kind: CmdLWLReset, Addr: a}}
	for row := 0; row < 128; row++ {
		kind := CmdActLatch
		if row == 0 {
			kind = CmdAct
		}
		a.Row = row
		cmds = append(cmds, Cmd{Kind: kind, Addr: a})
	}
	for g := 0; g < 4; g++ {
		cmds = append(cmds, Cmd{Kind: CmdSense, Addr: a})
	}
	a.Row = 1000
	cmds = append(cmds, Cmd{Kind: CmdWBack, Addr: a}, Cmd{Kind: CmdPre, Addr: a})

	s := NewBankState()
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(cmds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm protocol check of a 128-row OR allocated %v times, want 0", allocs)
	}
}
