package backend

import (
	"fmt"

	"pinatubo/internal/analog"
	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// SenseAmp is the paper's backend: bulk bitwise operations computed in the
// modified sense amplifiers of a resistive NVM array (PCM, STT-MRAM,
// ReRAM). One multi-row activation through the LWL latches puts every
// operand on the bitlines at once; a re-referenced sense resolves the
// result in a single analog step per column group.
type SenseAmp struct {
	sa *sense.Array
	// lwl is the latch model every lowering replays, reset at its start;
	// it is rebuilt only when a request's geometry changes its row count.
	lwl *LWL
}

// NewSenseAmp builds the modified-SA backend for a resistive technology.
// checkBits configures the per-op analog cross-check sample (0 disables).
func NewSenseAmp(p nvm.Params, cfg analog.SenseConfig, checkBits int) (*SenseAmp, error) {
	sa, err := sense.NewArray(p, cfg, checkBits)
	if err != nil {
		return nil, err
	}
	return &SenseAmp{sa: sa}, nil
}

// Params returns the technology parameter set.
func (b *SenseAmp) Params() nvm.Params { return b.sa.Params() }

// Caps: operand depth from the sensing-margin analysis, voted sensing
// available (replica groups re-sense at full margin), no reserved rows
// (the SAs are the compute unit), resistive fault model applies.
func (b *SenseAmp) Caps() Caps {
	return Caps{
		MaxORRows:      b.sa.MaxORRows(),
		VotedSensing:   true,
		ComputeRows:    0,
		FaultInjection: true,
	}
}

// ValidateOperands defers to the SA model's margin-derived rules.
func (b *SenseAmp) ValidateOperands(op sense.Op, n int) error {
	return b.sa.ValidateOperands(op, n)
}

// ComputeInto resolves the op through the SA model, including the analog
// cross-check sampling stream.
func (b *SenseAmp) ComputeInto(dst []uint64, op sense.Op, rows [][]uint64) error {
	return b.sa.ComputeWordsInto(dst, op, rows)
}

// Reset rewinds the SA model's analog-check sampling stream for sandbox
// reuse: a constant-time PCG reseed (sense.Array.Reset).
func (b *SenseAmp) Reset() { b.sa.Reset() }

// LowerIntra lowers the one-step multi-row operation in the SAs: LWL
// reset, one activation per operand (the first at full tRCD, the rest one
// command slot each), then one re-referenced sense per column group per
// micro-step. The result stays in the SAs for the controller's write-back.
func (b *SenseAmp) LowerIntra(req *IntraRequest, cmds []ddr.Cmd) ([]ddr.Cmd, error) {
	op, srcs, bits, geo := req.Op, req.Srcs, req.Bits, req.Geo
	e := b.sa.Params().Energy

	// Multi-row activation through the LWL latches (protocol-checked).
	if b.lwl == nil || b.lwl.rowsPerSubarray != geo.RowsPerSubarray {
		b.lwl = NewLWL(geo.RowsPerSubarray)
	}
	lwl := b.lwl
	lwl.Reset()
	cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdLWLReset, Addr: srcs[0]})
	for i, s := range srcs {
		if err := lwl.Latch(s.Row); err != nil {
			return nil, err
		}
		kind := ddr.CmdActLatch
		if i == 0 {
			kind = ddr.CmdAct // the first activate biases the array: full tRCD
		}
		cmds = append(cmds, ddr.Cmd{Kind: kind, Addr: s})
	}
	if lwl.OpenCount() != len(srcs) {
		return nil, fmt.Errorf("pim: LWL opened %d rows, want %d", lwl.OpenCount(), len(srcs))
	}

	// Sensing: one CmdSense per column group per micro-step.
	steps := senseSteps(req)
	for i := 0; i < steps; i++ {
		cmds = append(cmds, ddr.Cmd{Kind: ddr.CmdSense, Addr: srcs[0]})
	}

	// Energy: one bitline bias per sensed bit (the BL is shared by all open
	// rows), the cell read current of every open row folded into the
	// per-row SA adder, and LWL decode+latch switching per activation.
	fbits := float64(bits)
	n := float64(len(srcs))
	req.Energy.Add(energy.CellArray, fbits*e.ActPerBit)
	req.Energy.Add(energy.LWLDriver, n*e.LWLPerAct)
	req.Energy.Add(energy.SenseAmp,
		float64(op.SenseSteps())*fbits*(e.SensePerBit+n*e.SenseRowAdd))
	return cmds, nil
}

// IntraLen counts LowerIntra's commands: the LWL reset, one activation
// per operand and the sense steps.
func (b *SenseAmp) IntraLen(req *IntraRequest) int {
	return 1 + len(req.Srcs) + senseSteps(req)
}

// senseSteps is one sense per column group per micro-step of the op.
func senseSteps(req *IntraRequest) int {
	return SenseGroups(req.Geo, req.Bits) * req.Op.SenseSteps()
}
