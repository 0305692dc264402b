// Package backend defines the technology-backend seam of the simulator:
// the contract a memory technology must implement so the Pinatubo
// controller can run intra-subarray compute requests through it. The
// controller owns everything placement- and protocol-generic —
// classification, the inter-subarray/bank digital datapath, write-back
// routing, the program cache, fault injection, counters, ECC — and
// delegates exactly three things to the backend: how a co-located operand
// set is lowered inside the array (LowerIntra: the command sequence and
// its energy, a pure function of the request; IntraLen: how many
// commands that is), how its result is computed
// (ComputeInto, the backend's one compute entry) and what the technology
// is capable of (operand depth, voted sensing, reserved rows, whether the
// resistive fault model applies).
//
// Two backends exist: the modified-sense-amplifier NVM backend in this
// package (SenseAmp — the paper's architecture, shared by PCM, STT-MRAM
// and ReRAM) and the in-DRAM triple-row-activation backend in
// internal/dram. Both lower to the same ddr.Cmd vocabulary and flow
// through the same cmdstream.Program type, so Plan, Batch sharding and
// the pinatubod window pipeline never see which technology they run on.
package backend

import (
	"errors"

	"pinatubo/internal/ddr"
	"pinatubo/internal/energy"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// ErrActivationFault is returned when a multi-row activation transiently
// fails under fault injection. The operation touched no cell state, so the
// caller may simply reissue it. (The message keeps the historical "pim:"
// prefix — the sentinel predates the backend seam and callers surface it
// verbatim.)
var ErrActivationFault = errors.New("pim: transient multi-row activation fault")

// Caps describes what a backend's in-array compute path can do. The
// controller and runtime consult it instead of hard-coding technology
// assumptions.
type Caps struct {
	// MaxORRows is the one-step OR operand limit (sensing margin and
	// architectural cap combined). The scheduler chains deeper ORs.
	MaxORRows int
	// VotedSensing reports whether the backend can sense one operand set
	// several times at full margin in a single command sequence — the
	// mechanism behind ExecuteVoted. True only for modified-SA sensing.
	VotedSensing bool
	// ComputeRows is how many rows at the top of every subarray the
	// backend reserves for itself (designated compute/control rows). The
	// allocator keeps them out of circulation, on top of the scheduler's
	// scratch row. Zero for backends that compute in the sense amplifiers.
	ComputeRows int
	// FaultInjection reports whether the resistive fault model applies to
	// this backend's sensing. When false, the controller's AttachInjector
	// refuses an injector: a configuration error, reported once, rather
	// than faults silently never drawn.
	FaultInjection bool
}

// IntraRequest carries one intra-subarray compute request into a backend
// lowering. The controller fills every field; the backend appends
// commands and charges energy. Nothing in it depends on memory contents,
// so the lowering it drives is a pure function of the request.
type IntraRequest struct {
	Op sense.Op
	// Srcs are the operand rows; all share one subarray and are distinct
	// (the controller classified and validated them).
	Srcs []memarch.RowAddr
	// Bits is the vector length.
	Bits int
	// Geo is the memory organisation (sense-group width, rows per
	// subarray).
	Geo memarch.Geometry
	// Energy is the request's meter; the backend adds its per-component
	// spend.
	Energy *energy.Meter
}

// Backend is one memory technology's compute implementation.
type Backend interface {
	// Params returns the technology parameter set the backend prices with.
	Params() nvm.Params
	// Caps returns the backend's capability summary.
	Caps() Caps
	// ValidateOperands applies the backend's intra-subarray operand-count
	// rules (the inter-subarray/bank digital path has its own, in the
	// controller).
	ValidateOperands(op sense.Op, n int) error
	// LowerIntra appends the intra-subarray command sequence for req to
	// cmds and charges req.Energy. It reads no memory and draws no fault:
	// the same request always lowers to the same commands and energy, so
	// the controller may cache the result. The sequence must leave the
	// result in the computing subarray's sense amplifiers with its rows
	// still open — the controller appends the write-back routing and the
	// closing precharge, exactly as for any other placement class.
	LowerIntra(req *IntraRequest, cmds []ddr.Cmd) ([]ddr.Cmd, error)
	// IntraLen returns how many commands LowerIntra appends for req, so
	// the controller can allocate a sequence once, at its final length.
	IntraLen(req *IntraRequest) int
	// ComputeInto resolves op over the operand rows functionally into
	// dst, without emitting commands or energy. It is the backend's only
	// compute entry: every intra-subarray execution and every replica
	// pass of a voted one computes through it, and the controller applies
	// any injected faults around it. A backend with a stochastic model
	// check (the SA array's analog cross-check) consumes its stream here.
	ComputeInto(dst []uint64, op sense.Op, rows [][]uint64) error
	// Reset restores the backend to its just-built state (sampling
	// streams, scratch) for sandbox reuse.
	Reset()
}

// SenseGroups returns how many serial column-group sensing steps cover
// `bits` bits in the given geometry.
func SenseGroups(geo memarch.Geometry, bits int) int {
	sw := geo.SenseWidthBits()
	return (bits + sw - 1) / sw
}
