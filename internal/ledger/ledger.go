// Package ledger is the one counter ledger of a simulated System. Every
// layer that counts — the controller's command tally, verification and
// ECC passes, the resilience scheduler's rungs and votes, the fault
// injector's ground truth and the System's host paths — adds into the same
// Ledger through a pointer, so the counter set is declared once, here.
// Merging a shard sandbox into the live System is one Absorb; clearing a
// pooled sandbox is one Reset. The package imports nothing, so every layer
// can depend on it.
package ledger

// Counter names one integer counter of a Ledger.
type Counter int

// The counters. Two blocks are indexed by offset from their first member:
// OpsHostRead.. follows the public PlacementClass order after PlaceNone,
// and HwIntraSub.. follows pim.Class.
const (
	// Completed public operations by placement class, and the hardware
	// requests they issued.
	OpsHostRead Counter = iota
	OpsHostWrite
	OpsIntraSub
	OpsInterSub
	OpsInterBank
	Requests

	// Controller executions by placement class and the hardware activity
	// of their command sequences.
	HwIntraSub
	HwInterSub
	HwInterBank
	Activations // row activations (ACT, ACT-LATCH; three per TRA)
	SenseSteps  // column-group sensing steps
	Writebacks  // cell-array writes (WBACK, WR)
	BusBits     // data bits that crossed the DDR bus

	// Fault-injector ground truth.
	SenseFlips       // bits flipped on the sensing path
	ActivationFaults // transient multi-row activation failures
	StuckRows        // rows that developed stuck-at bits
	StuckBitsForced  // written bits overridden by stuck cells
	RowWrites        // row programs seen by the wear model

	// The resilience response: read-back ladder, SECDED and replication.
	Verifies          // read-back verification passes
	Retries           // request re-executions
	DepthReductions   // failing deep ORs re-run at lower depth
	InterFallbacks    // requests degraded to the digital inter path
	HostFallbacks     // requests degraded to the host CPU
	RowsRetired       // worn rows retired and remapped
	BitsCorrected     // wrong bits intercepted before reaching a caller
	EccDecodes        // syndrome decodes issued
	EccCorrectedBits  // bits fixed in place by SECDED correction
	EccUncorrectables // detected-uncorrectable syndromes escalated
	Votes             // majority-voted activations taken
	BitsOutvoted      // disagreeing bit positions overruled by the majority

	// NumCounters is the number of counters.
	NumCounters
)

// Ledger holds every counter of one System. The zero value is an empty
// ledger.
type Ledger struct {
	Count [NumCounters]int64
	// BusySeconds and EnergyJoules total the simulated time and energy of
	// completed public operations.
	BusySeconds  float64
	EnergyJoules float64
}

// Absorb adds o into l. Integer counts merge exactly in any order; the
// float totals are one addition each, so a caller that absorbs several
// ledgers fixes their order to fix the sums' bits.
func (l *Ledger) Absorb(o *Ledger) {
	for i, n := range o.Count {
		l.Count[i] += n
	}
	l.BusySeconds += o.BusySeconds
	l.EnergyJoules += o.EnergyJoules
}

// Reset restores the zero ledger.
func (l *Ledger) Reset() { *l = Ledger{} }
