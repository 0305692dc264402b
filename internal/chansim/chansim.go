// Package chansim is an event-driven scheduler for concurrent Pinatubo
// requests on one or more memory channels. The trace-level evaluation
// treats requests as overlappable only across channels (a deliberately
// conservative assumption: multi-row activation is power hungry); this
// simulator models the finer truth — each channel's command bus serialises
// command *issue* slots while banks execute independently — so the
// assumption can be checked rather than asserted, and the concurrency
// ablation can show where bank-level overlap would saturate.
//
// The model: each request is an ordered command sequence bound to one
// channel. A command c may start when (a) its channel's command bus is
// free for its issue slot, (b) its target resource (bank) has finished
// every earlier command bound to it, and (c) the previous command of the
// same request has completed (intra-request dependency). The bus is held
// only for the issue slot; the resource is held for the command's full
// execution time. Stochastic sequences (verify-and-retry, depth splits,
// ECC corrective reprograms) arrive already expanded: a caller samples a
// trace, then schedules its fixed command list.
package chansim

import (
	"fmt"
	"sort"

	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
)

// Cmd is one command of a request, reduced to its scheduling footprint.
type Cmd struct {
	// Issue is the command-bus occupancy (one slot, e.g. 1.25 ns).
	Issue float64
	// Exec is how long the target resource stays busy executing it
	// (tRCD for an activate, tCL for a sense step, ...). Exec >= 0;
	// commands with Exec < Issue still hold the bus for Issue.
	Exec float64
	// Resource identifies the bank (or buffer) the command occupies.
	// Resource < 0 means bus-only (e.g. MRS). IDs must be small, dense
	// ints: the scheduler keeps one slot per ID up to the largest one a
	// schedule names. BankResource IDs and Replicate's offsets are.
	Resource int
}

// Request is an ordered command sequence bound to one channel.
type Request struct {
	Cmds []Cmd
	// Channel selects the command bus the request issues on (default 0).
	// Banks are global resource IDs, so requests on different channels
	// still serialise if they name the same resource.
	Channel int
}

// Duration returns the request's standalone latency (no contention).
func (r Request) Duration() float64 {
	t := 0.0
	for _, c := range r.Cmds {
		d := c.Exec
		if c.Issue > d {
			d = c.Issue
		}
		t += d
	}
	return t
}

// ResourceStride returns 1 + the largest resource ID queued in r (minimum
// 1): offsetting a copy's resources by a multiple of the stride keeps the
// copy's banks disjoint from the original while preserving intra-request
// bank distinctness.
func (r Request) ResourceStride() int {
	max := -1
	for _, c := range r.Cmds {
		if c.Resource > max {
			max = c.Resource
		}
	}
	if max < 0 {
		return 1
	}
	return max + 1
}

// WithResourceOffset returns a deep copy of r with every non-negative
// resource ID shifted by off. Bus-only commands (Resource < 0) are left
// untouched.
func (r Request) WithResourceOffset(off int) Request {
	out := r
	out.Cmds = make([]Cmd, len(r.Cmds))
	for i, c := range r.Cmds {
		if c.Resource >= 0 {
			c.Resource += off
		}
		out.Cmds[i] = c
	}
	return out
}

// Replicate returns k copies of the template, copy i offset by
// i*template.ResourceStride() so each copy targets its own disjoint bank
// set while keeping the template's intra-request bank structure.
func Replicate(template Request, k int) []Request {
	stride := template.ResourceStride()
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = template.WithResourceOffset(i * stride)
	}
	return reqs
}

// Arbiter selects which ready request issues next when several compete.
type Arbiter int

const (
	// ArbFIFO issues the command that can start earliest, breaking ties
	// by request index — how a simple in-order controller with a shared
	// bus behaves. This is the deterministic legacy policy.
	ArbFIFO Arbiter = iota
	// ArbOldestReady issues for the request that has been ready longest
	// (smallest previous-command completion time), breaking ties by
	// earliest start then request index. It trades a little peak
	// throughput for fairness: a request stalled behind a busy bank
	// cannot be starved by a stream of short newcomers.
	ArbOldestReady
)

func (a Arbiter) String() string {
	switch a {
	case ArbFIFO:
		return "fifo"
	case ArbOldestReady:
		return "oldest-ready"
	}
	return fmt.Sprintf("Arbiter(%d)", int(a))
}

// Result is the outcome of a schedule.
type Result struct {
	// Makespan is the completion time of the last request.
	Makespan float64
	// Completion[i] is request i's finish time.
	Completion []float64
	// BusBusy is the total command-bus occupancy across all channels.
	BusBusy float64
	// Channels is the number of command buses the schedule spanned.
	Channels int
}

// BusUtilisation returns the command-bus occupancy as a fraction of the
// aggregate bus time available (Makespan × channels). Always <= 1.
func (r Result) BusUtilisation() float64 {
	if r.Makespan == 0 {
		return 0
	}
	ch := r.Channels
	if ch < 1 {
		ch = 1
	}
	return r.BusBusy / (r.Makespan * float64(ch))
}

// Schedule runs the requests concurrently and returns the makespan, using
// FIFO arbitration. For fixed single-channel command sequences this
// reproduces the original greedy earliest-start-first scheduler exactly.
func Schedule(reqs []Request) (Result, error) {
	return ScheduleWith(reqs, ArbFIFO)
}

// ScheduleWith runs the requests concurrently under the given arbitration
// policy.
//
// Each step scans the requests still in flight, in index order, for the
// one whose next command the arbiter favours, issues that command, and
// drops the request from the scan once its last command has issued.
// Under ArbFIFO the scan stops at the first request whose command can
// start when the earliest bus frees: no command starts sooner, and an
// earlier request that could start that soon would have stopped the scan
// first.
func ScheduleWith(reqs []Request, arb Arbiter) (Result, error) {
	if arb != ArbFIFO && arb != ArbOldestReady {
		return Result{}, fmt.Errorf("chansim: unknown arbiter %d", int(arb))
	}
	// state is one in-flight request: the commands not yet issued, when
	// its previous command completes, its bus and its index in reqs.
	type state struct {
		cmds     []Cmd
		prevDone float64
		channel  int
		index    int
	}
	active := make([]state, 0, len(reqs))
	channels, resources := 1, 0
	for i, r := range reqs {
		for j, c := range r.Cmds {
			if c.Issue < 0 || c.Exec < 0 {
				return Result{}, fmt.Errorf("chansim: request %d command %d has negative time", i, j)
			}
			resources = max(resources, c.Resource+1)
		}
		if r.Channel < 0 {
			return Result{}, fmt.Errorf("chansim: request %d has negative channel", i)
		}
		channels = max(channels, r.Channel+1)
		if len(r.Cmds) > 0 {
			active = append(active, state{cmds: r.Cmds, channel: r.Channel, index: i})
		}
	}

	// busFree[ch] is when channel ch's command bus frees, resourceFree[id]
	// when resource id finishes its last command: dense tables over every
	// channel and ID the requests name. Up to 4 buses and 64 IDs, the
	// banks of one channel, live in local arrays and cost no allocation.
	var localBus [4]float64
	busFree := zeroed(localBus[:], channels)
	var localRes [64]float64
	resourceFree := zeroed(localRes[:], resources)
	res := Result{Completion: make([]float64, len(reqs)), Channels: channels}

	for len(active) > 0 {
		floor := busFree[0]
		for _, bf := range busFree[1:] {
			if bf < floor {
				floor = bf
			}
		}
		// Find the request whose next command the arbiter favours.
		best := -1
		bestStart, bestReady := 0.0, 0.0
		for k := range active {
			st := &active[k]
			c := st.cmds[0]
			start := st.prevDone
			if bf := busFree[st.channel]; bf > start {
				start = bf
			}
			if c.Resource >= 0 && resourceFree[c.Resource] > start {
				start = resourceFree[c.Resource]
			}
			if arb == ArbFIFO {
				if best == -1 || start < bestStart {
					best, bestStart = k, start
				}
				if start <= floor {
					break // nothing can start sooner (start >= floor always)
				}
				continue
			}
			// ArbOldestReady. The tie-break compares event times for exact
			// equality on purpose: both are copies of the same computed
			// value, and an epsilon here would make arbitration depend on
			// magnitudes.
			if best == -1 || st.prevDone < bestReady ||
				//pinlint:ignore floateq exact tie-break on identical event times keeps arbitration deterministic
				(st.prevDone == bestReady && start < bestStart) {
				best, bestStart, bestReady = k, start, st.prevDone
			}
		}
		st := &active[best]
		c := st.cmds[0]
		issueEnd := bestStart + c.Issue
		execEnd := bestStart + c.Exec
		if issueEnd > execEnd {
			execEnd = issueEnd
		}
		busFree[st.channel] = issueEnd
		res.BusBusy += c.Issue
		if c.Resource >= 0 {
			resourceFree[c.Resource] = execEnd
		}
		st.prevDone = execEnd
		st.cmds = st.cmds[1:]
		if len(st.cmds) == 0 {
			res.Completion[st.index] = execEnd
			if execEnd > res.Makespan {
				res.Makespan = execEnd
			}
			active = append(active[:best], active[best+1:]...)
		}
	}
	return res, nil
}

// zeroed returns n zeroed values: the front of buf, which must be zero,
// when it holds n, else a new slice.
func zeroed(buf []float64, n int) []float64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

// ThroughputCurve schedules k copies of a template request for every k in
// ks and returns requests completed per second — the channel's concurrency
// scaling curve. Copy i's resources are offset by i×stride (stride = one
// past the template's largest resource ID), so each copy targets its own
// disjoint bank set while intra-request bank distinctness is preserved.
func ThroughputCurve(template Request, ks []int) ([]float64, error) {
	out := make([]float64, len(ks))
	for ki, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("chansim: k=%d", k)
		}
		res, err := Schedule(Replicate(template, k))
		if err != nil {
			return nil, err
		}
		out[ki] = float64(k) / res.Makespan
	}
	return out, nil
}

// SaturationPoint returns the smallest k in ks beyond which adding another
// in-flight request improves channel throughput by less than frac.
func SaturationPoint(template Request, ks []int, frac float64) (int, error) {
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	curve, err := ThroughputCurve(template, sorted)
	if err != nil {
		return 0, err
	}
	return SaturationOf(sorted, curve, frac), nil
}

// SaturationOf applies SaturationPoint's per-step marginal-gain rule to an
// already computed throughput curve (ks must be sorted ascending): it
// returns the smallest k beyond which throughput improves by less than
// frac per added request.
func SaturationOf(ks []int, curve []float64, frac float64) int {
	for i := 1; i < len(curve); i++ {
		gain := curve[i]/curve[i-1] - 1
		perStep := gain / float64(ks[i]-ks[i-1])
		if perStep < frac {
			return ks[i-1]
		}
	}
	return ks[len(ks)-1]
}

// BankResource flattens a row address into the global scheduler resource
// ID used by FromDDR: the bank's index among every bank of geo, so
// distinct banks anywhere in the system never collide and the IDs stay
// dense (a system's banks number 0 to Channels·RanksPerChannel·BanksPerChip-1).
func BankResource(a memarch.RowAddr, geo memarch.Geometry) int {
	return (a.Channel*geo.RanksPerChannel+a.Rank)*geo.BanksPerChip + a.Bank
}

// FromDDR converts a controller-emitted DDR command sequence into a
// schedulable request. Every command occupies one command-bus slot except
// the data bursts (CmdRd/CmdWr), which hold the bus for their transfer
// time; execution occupies the command's target bank for its full
// duration. geo numbers the banks as resource IDs (BankResource).
func FromDDR(cmds []ddr.Cmd, t nvm.Timing, bus ddr.BusParams, geo memarch.Geometry) Request {
	return Request{Cmds: AppendDDR(make([]Cmd, 0, len(cmds)), cmds, t, bus, geo)}
}

// AppendDDR appends the scheduling footprint of every command in cmds to
// dst, priced as FromDDR prices them, and returns the extended slice.
func AppendDDR(dst []Cmd, cmds []ddr.Cmd, t nvm.Timing, bus ddr.BusParams, geo memarch.Geometry) []Cmd {
	for _, c := range cmds {
		exec := ddr.CmdTime(c, t, bus)
		issue := t.TCMD
		if c.Kind == ddr.CmdRd || c.Kind == ddr.CmdWr {
			// Bursts occupy the data bus; model as bus occupancy too.
			issue = exec
		}
		resource := BankResource(c.Addr, geo)
		if c.Kind == ddr.CmdMRS {
			resource = -1 // register write: bus only
		}
		dst = append(dst, Cmd{Issue: issue, Exec: exec, Resource: resource})
	}
	return dst
}
