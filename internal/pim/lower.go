package pim

import (
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
)

// This file is the lowering boundary between the controller and the
// cmdstream IR: every cost-bearing artifact the controller produces knows
// how to emit itself as one cmdstream.Instr, so the runtime records a
// program instead of maintaining cost and trace side channels.

// Instr lowers a controller request to a KindRequest instruction carrying
// its full extended-DDR command sequence and end-to-end cost.
func (r *Result) Instr() cmdstream.Instr {
	return cmdstream.Instr{
		Kind:    cmdstream.KindRequest,
		Cmds:    r.Commands,
		Seconds: r.Seconds,
		Joules:  r.Energy.Total(),
	}
}

// Instr lowers a read-back verification pass to a KindVerify instruction
// occupying dst's bank.
func (v *Verification) Instr(dst memarch.RowAddr) cmdstream.Instr {
	return cmdstream.Instr{
		Kind:    cmdstream.KindVerify,
		Addr:    dst,
		Seconds: v.Seconds,
		Joules:  v.Energy.Total(),
	}
}

// Instr lowers a syndrome-decode verification pass to a KindVerify
// instruction occupying dst's bank.
func (v *ECCVerification) Instr(dst memarch.RowAddr) cmdstream.Instr {
	return cmdstream.Instr{
		Kind:    cmdstream.KindVerify,
		Addr:    dst,
		Seconds: v.Seconds,
		Joules:  v.Energy.Total(),
	}
}

// Instr lowers a check-bit maintenance pass to a KindVerify instruction
// occupying dst's bank. The linear fast path prices Seconds at 0: such an
// instruction carries energy only and leaves no scheduling footprint.
func (c ECCCost) Instr(dst memarch.RowAddr) cmdstream.Instr {
	return cmdstream.Instr{
		Kind:    cmdstream.KindVerify,
		Addr:    dst,
		Seconds: c.Seconds,
		Joules:  c.Energy.Total(),
	}
}
