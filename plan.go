package pinatubo

import (
	"fmt"
	"time"

	"pinatubo/internal/chansim"
	"pinatubo/internal/memarch"
	"pinatubo/internal/pimrt"
)

// planFrac is the marginal-gain threshold of the saturation rule — the
// same 5%-per-added-request cutoff chansim.SaturationPoint applies, so the
// zero-fault plan reproduces its answer exactly.
const planFrac = 0.05

// planReplications is the Monte Carlo sample count when faults make
// traces stochastic. The zero-fault path is deterministic and samples
// once.
const planReplications = 3

// Arbiter selects the channel arbitration policy the planner schedules
// under, mirroring the event-driven scheduler's policies.
type Arbiter int

const (
	// ArbFIFO issues the command that can start earliest — the
	// deterministic legacy policy of a simple in-order controller.
	ArbFIFO Arbiter = iota
	// ArbOldestReady issues for the request that has been ready longest,
	// trading a little peak throughput for fairness: a request stalled
	// behind a busy bank cannot be starved by a stream of short newcomers.
	// Under load this narrows the completion-time tail (p99) relative to
	// FIFO.
	ArbOldestReady
)

// String names the arbiter as the CLI -arb flag spells it.
func (a Arbiter) String() string {
	switch a {
	case ArbFIFO:
		return "fifo"
	case ArbOldestReady:
		return "oldest-ready"
	default:
		return fmt.Sprintf("Arbiter(%d)", int(a))
	}
}

// internal maps the public arbiter onto the channel scheduler's.
func (a Arbiter) internal() (chansim.Arbiter, error) {
	switch a {
	case ArbFIFO:
		return chansim.ArbFIFO, nil
	case ArbOldestReady:
		return chansim.ArbOldestReady, nil
	default:
		return 0, fmt.Errorf("pinatubo: unknown Arbiter %d", int(a))
	}
}

// LatencyStats summarises per-operation completion times with
// nearest-rank percentiles.
type LatencyStats struct {
	P50  time.Duration
	P99  time.Duration
	Mean time.Duration
	Max  time.Duration
}

// PlanPoint is one concurrency level of a plan: the throughput the channel
// sustains with k operations in flight and the completion-time spread of
// those operations (pooled across Monte Carlo replications).
type PlanPoint struct {
	// Concurrency is the number of in-flight operations (k).
	Concurrency int
	// Throughput is logical operations per second, averaged across
	// replications.
	Throughput float64
	// Latency pools every operation's completion time across
	// replications.
	Latency LatencyStats
	// Makespan is the scheduled end-to-end time of the k in-flight
	// operations, averaged across replications. At fault rate 0 (one
	// deterministic replication) it is the exact schedule length, and
	// System.Batch of the same op mix under the same arbiter reproduces
	// it bit-identically — the planner's model is checked, not estimated.
	Makespan time.Duration
	// BusUtilisation is the mean command-bus occupancy fraction.
	BusUtilisation float64
}

// PlanReport answers "how many of these should I keep in flight?" for one
// operation shape under a hypothetical fault rate.
type PlanReport struct {
	// Op is the planned operation.
	Op Op
	// FaultRate is the sense-flip rate the plan assumed.
	FaultRate float64
	// Arb is the arbitration policy the plan scheduled under.
	Arb Arbiter
	// Concurrency is the largest k the plan explored.
	Concurrency int
	// Replications is how many independent trace samples were scheduled
	// per point (1 when FaultRate is 0 — the trace is deterministic).
	Replications int
	// Points is the concurrency sweep, ascending in k.
	Points []PlanPoint
	// SaturationPoint is the smallest k beyond which adding another
	// in-flight operation improves throughput by less than 5% per added
	// request — the concurrency worth provisioning for.
	SaturationPoint int
	// Headroom is the throughput multiple available between one in-flight
	// operation and the saturation point: how much per-channel
	// concurrency actually pays under this fault rate.
	Headroom float64
}

// Plan measures how the configured system's throughput scales with
// in-flight operations of the given shape, under a hypothetical sense-flip
// rate, and returns the saturation point, headroom, and per-point p50/p99
// latencies.
//
// The plan runs on sandboxed copies of this system's configuration
// (technology, geometry, resilience policy — with the fault model replaced
// by faultRate alone), so planning never disturbs the live system's
// memory, allocator or statistics. Operand vectors are row-resident and
// maximally deep: OpOr plans a MaxORRows-operand one-step OR (shallower
// only when a subarray cannot hold that many rows with their replicas),
// the fixed-arity ops their natural operand count, each over a full row.
// On a replicated System the operands are allocated with their replicas,
// so the plan prices the voted requests Apply would issue.
// Command traces are captured through the resilience ladder — retries,
// depth splits, verification passes and ECC reprograms all widen the
// trace — and replayed through the event-driven channel scheduler. With
// faultRate 0 the traces are deterministic and the result reproduces
// chansim.SaturationPoint bit-identically; with faults the plan Monte
// Carlo samples independent seeded traces.
//
// OpPopcount is not plannable: it is host-bus traffic, not a channel
// operation.
//
// Plan schedules under FIFO arbitration by default; WithArbiter selects
// ArbOldestReady for quantifying the tail-latency gap between arbiters,
// and WithContext attaches cancellation — a cancelled Plan returns the
// context's error and, because every sample ran on a sandbox, has no
// side effects on the live system.
//
// A plan depends only on the System's Config and the four arguments
// (op, concurrency, fault rate, arbiter), never on the live contents,
// allocator or counters. Like every other method, Plan runs on the
// goroutine that owns the System (between a BatchRun's Start and Wait
// included).
func (s *System) Plan(op Op, concurrency int, faultRate float64, opts ...Option) (PlanReport, error) {
	o, err := resolveOpts(opts)
	if err != nil {
		return PlanReport{}, err
	}
	arb := o.arb
	if concurrency < 1 {
		return PlanReport{}, fmt.Errorf("pinatubo: planning concurrency %d", concurrency)
	}
	if !(faultRate >= 0 && faultRate <= 1) { // NaN fails too
		return PlanReport{}, fmt.Errorf("pinatubo: fault rate %g outside 0..1", faultRate)
	}
	if op == OpPopcount {
		return PlanReport{}, fmt.Errorf("pinatubo: %v is host traffic, not a channel operation", op)
	}
	if _, err := op.internal(); err != nil {
		return PlanReport{}, err
	}
	carb, err := arb.internal()
	if err != nil {
		return PlanReport{}, err
	}

	reps := planReplications
	if faultRate == 0 {
		reps = 1
	}
	// One trace set per replication: `concurrency` independently sampled
	// operation traces, each copy's banks offset into its own resource
	// range.
	traceSets := make([][]chansim.Request, reps)
	for rep := 0; rep < reps; rep++ {
		if err := o.ctx.Err(); err != nil {
			return PlanReport{}, err
		}
		set, err := s.sampleTraces(op, concurrency, faultRate, rep)
		if err != nil {
			return PlanReport{}, err
		}
		traceSets[rep] = set
	}

	ks := planKs(concurrency)
	report := PlanReport{
		Op:           op,
		FaultRate:    faultRate,
		Arb:          arb,
		Concurrency:  concurrency,
		Replications: reps,
	}
	curve := make([]float64, len(ks))
	for i, k := range ks {
		if err := o.ctx.Err(); err != nil {
			return PlanReport{}, err
		}
		mc, err := chansim.MonteCarlo(
			chansim.MCConfig{Replications: reps, Arb: carb},
			func(rep int) ([]chansim.Request, error) {
				return traceSets[rep][:k], nil
			})
		if err != nil {
			return PlanReport{}, err
		}
		curve[i] = mc.Throughput.Mean
		report.Points = append(report.Points, PlanPoint{
			Concurrency: k,
			Throughput:  mc.Throughput.Mean,
			Latency: LatencyStats{
				P50:  seconds(mc.Latency.P50),
				P99:  seconds(mc.Latency.P99),
				Mean: seconds(mc.Latency.Mean),
				Max:  seconds(mc.Latency.Max),
			},
			Makespan:       seconds(mc.Makespan.Mean),
			BusUtilisation: mc.BusUtilisation.Mean,
		})
	}
	report.SaturationPoint = chansim.SaturationOf(ks, curve, planFrac)
	for i, k := range ks {
		if k == report.SaturationPoint && curve[0] > 0 {
			report.Headroom = curve[i] / curve[0]
		}
	}
	return report, nil
}

// planKs returns the concurrency levels to explore: powers of two up to
// the cap, plus the cap itself.
func planKs(concurrency int) []int {
	var ks []int
	for k := 1; k < concurrency; k *= 2 {
		ks = append(ks, k)
	}
	return append(ks, concurrency)
}

// seconds converts a simulated-seconds sample to a Duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// sampleTraces builds a sandboxed system with the plan's fault rate and
// captures the command traces of `concurrency` executions of the planned
// operation, converted to schedulable requests with per-copy bank offsets.
func (s *System) sampleTraces(op Op, concurrency int, faultRate float64, rep int) ([]chansim.Request, error) {
	cfg := s.cfg
	cfg.Fault = FaultConfig{Seed: s.cfg.Fault.Seed + int64(rep), SenseFlipRate: faultRate}
	sb, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// op.internal rejects OpPopcount (Plan does too, before sampling), so
	// only channel operations reach the scheduler.
	sop, err := op.internal()
	if err != nil {
		return nil, err
	}
	rows, err := sb.planOperands(op)
	if err != nil {
		return nil, err
	}
	geo := sb.mem.Geometry()
	dst := pimrt.ScratchRow(geo, rows[0])
	bits := sb.RowBits()
	timing := sb.mem.Tech().Timing
	bus := sb.ctl.Bus()

	// Without faults every execution replays the same deterministic
	// trace, so one is sampled and copied into every slot; with faults
	// each copy draws its own.
	execs := concurrency
	if faultRate == 0 {
		execs = 1
	}
	reqs := make([]chansim.Request, concurrency)
	for i := 0; i < execs; i++ {
		sr, err := sb.sched.Execute(sop, rows, bits, dst)
		if err != nil {
			return nil, fmt.Errorf("pinatubo: sampling plan trace %d: %w", i, err)
		}
		dst = sr.FinalDst
		reqs[i] = sr.Program.Request(timing, bus, geo)
	}
	for i := execs; i < concurrency; i++ {
		reqs[i] = reqs[0]
	}
	// Offset each copy into its own bank range with one uniform stride so
	// in-flight operations never collide on a resource ID. In the
	// zero-fault case every copy is identical, so the stride equals the
	// single template's — exactly what chansim.Replicate uses.
	stride := 1
	for _, r := range reqs {
		if st := r.ResourceStride(); st > stride {
			stride = st
		}
	}
	for i := range reqs {
		reqs[i] = reqs[i].WithResourceOffset(i * stride)
	}
	return reqs, nil
}

// planOperands allocates the operand rows of a planned op on a plan
// sandbox, as one group through AllocGroup, so a replicated System plans
// voted requests exactly as its Apply executes them: each operand row is
// registered with its replicas. The fixed-arity ops take their natural
// operand count; OpOr the deepest one-step group that fits one subarray
// together with its replicas, MaxORRows at most.
func (s *System) planOperands(op Op) ([]memarch.RowAddr, error) {
	n := min(s.MaxORRows(), s.UsableRowsPerSubarray()/max(1, s.replicate))
	if _, hi := op.arity(); hi >= 0 {
		n = hi
	}
	vs, err := s.AllocGroup(n, s.RowBits())
	if err != nil {
		return nil, err
	}
	rows := make([]memarch.RowAddr, n)
	for i, v := range vs {
		rows[i] = v.rows[0]
	}
	return rows, nil
}
