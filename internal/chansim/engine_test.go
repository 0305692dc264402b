package chansim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pinatubo/internal/memarch"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// legacySchedule is the original fixed-sequence single-channel greedy
// scheduler, kept verbatim as the reference the event-driven engine must
// reproduce bit-identically under ArbFIFO.
func legacySchedule(reqs []Request) Result {
	type state struct {
		next     int
		prevDone float64
	}
	states := make([]state, len(reqs))
	busFree := 0.0
	resourceFree := map[int]float64{}
	res := Result{Completion: make([]float64, len(reqs)), Channels: 1}
	for {
		best := -1
		bestStart := 0.0
		for i := range reqs {
			st := &states[i]
			if st.next >= len(reqs[i].Cmds) {
				continue
			}
			c := reqs[i].Cmds[st.next]
			start := st.prevDone
			if busFree > start {
				start = busFree
			}
			if c.Resource >= 0 && resourceFree[c.Resource] > start {
				start = resourceFree[c.Resource]
			}
			if best == -1 || start < bestStart {
				best, bestStart = i, start
			}
		}
		if best == -1 {
			break
		}
		c := reqs[best].Cmds[states[best].next]
		issueEnd := bestStart + c.Issue
		execEnd := bestStart + c.Exec
		if issueEnd > execEnd {
			execEnd = issueEnd
		}
		busFree = issueEnd
		res.BusBusy += c.Issue
		if c.Resource >= 0 {
			resourceFree[c.Resource] = execEnd
		}
		states[best].prevDone = execEnd
		states[best].next++
		if states[best].next == len(reqs[best].Cmds) {
			res.Completion[best] = execEnd
			if execEnd > res.Makespan {
				res.Makespan = execEnd
			}
		}
	}
	return res
}

func randomRequests(rng *rand.Rand) []Request {
	n := 1 + rng.Intn(6)
	reqs := make([]Request, n)
	for i := range reqs {
		m := rng.Intn(8)
		cmds := make([]Cmd, m)
		for j := range cmds {
			cmds[j] = Cmd{
				Issue:    float64(rng.Intn(5)) * 0.5,
				Exec:     float64(rng.Intn(20)) * 0.5,
				Resource: rng.Intn(5) - 1, // -1..3, includes bus-only
			}
		}
		reqs[i] = Request{Cmds: cmds}
	}
	return reqs
}

func TestFIFOMatchesLegacyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		reqs := randomRequests(rng)
		want := legacySchedule(reqs)
		got, err := ScheduleWith(reqs, ArbFIFO)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: engine diverged from legacy scheduler:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// mapScheduleWith is the engine as it stood before its resource table
// became a dense slice: ScheduleWith with resourceFree in a map, kept
// verbatim (minus the Grow hook, since deleted) as a reference the
// engine must reproduce bit-identically.
func mapScheduleWith(reqs []Request, arb Arbiter) (Result, error) {
	if arb != ArbFIFO && arb != ArbOldestReady {
		return Result{}, fmt.Errorf("chansim: unknown arbiter %d", int(arb))
	}
	type state struct {
		cmds     []Cmd
		next     int     // next command index
		prevDone float64 // completion of the previous command
		done     bool
	}
	states := make([]state, len(reqs))
	channels := 1
	for i, r := range reqs {
		for j, c := range r.Cmds {
			if c.Issue < 0 || c.Exec < 0 {
				return Result{}, fmt.Errorf("chansim: request %d command %d has negative time", i, j)
			}
		}
		if r.Channel < 0 {
			return Result{}, fmt.Errorf("chansim: request %d has negative channel", i)
		}
		if r.Channel+1 > channels {
			channels = r.Channel + 1
		}
		states[i] = state{cmds: r.Cmds}
	}

	busFree := make([]float64, channels)
	resourceFree := map[int]float64{}
	res := Result{Completion: make([]float64, len(reqs)), Channels: channels}

	// refill records the completion time once a request is finished.
	refill := func(i int) {
		st := &states[i]
		if !st.done && st.next >= len(st.cmds) {
			st.done = true
		}
		if st.done && res.Completion[i] == 0 {
			res.Completion[i] = st.prevDone
			if st.prevDone > res.Makespan {
				res.Makespan = st.prevDone
			}
		}
	}

	for {
		// Find the request whose next command the arbiter favours.
		best := -1
		bestStart, bestReady := 0.0, 0.0
		for i := range reqs {
			refill(i)
			st := &states[i]
			if st.done {
				continue
			}
			c := st.cmds[st.next]
			start := st.prevDone
			if bf := busFree[reqs[i].Channel]; bf > start {
				start = bf
			}
			if c.Resource >= 0 && resourceFree[c.Resource] > start {
				start = resourceFree[c.Resource]
			}
			switch arb {
			case ArbFIFO:
				if best == -1 || start < bestStart {
					best, bestStart = i, start
				}
			case ArbOldestReady:
				if best == -1 || st.prevDone < bestReady ||
					//pinlint:ignore floateq exact tie-break on identical event times keeps arbitration deterministic
					(st.prevDone == bestReady && start < bestStart) {
					best, bestStart, bestReady = i, start, st.prevDone
				}
			}
		}
		if best == -1 {
			break // all done
		}
		st := &states[best]
		c := st.cmds[st.next]
		issueEnd := bestStart + c.Issue
		execEnd := bestStart + c.Exec
		if issueEnd > execEnd {
			execEnd = issueEnd
		}
		busFree[reqs[best].Channel] = issueEnd
		res.BusBusy += c.Issue
		if c.Resource >= 0 {
			resourceFree[c.Resource] = execEnd
		}
		st.prevDone = execEnd
		st.next++
	}
	return res, nil
}

// randomChannelRequests extends randomRequests' shape to the engine's
// full input space: up to three channels, bus-only commands, and
// resource IDs up to 11 shared across requests.
func randomChannelRequests(rng *rand.Rand) []Request {
	reqs := make([]Request, 1+rng.Intn(6))
	for i := range reqs {
		cmds := make([]Cmd, rng.Intn(12))
		for j := range cmds {
			cmds[j] = Cmd{
				Issue:    float64(rng.Intn(5)) * 0.5,
				Exec:     float64(rng.Intn(20)) * 0.5,
				Resource: rng.Intn(13) - 1, // -1..11
			}
		}
		reqs[i] = Request{Channel: rng.Intn(3), Cmds: cmds}
	}
	return reqs
}

// sameSchedule reports whether two results agree under == on every
// completion time, the makespan, the bus occupancy and the channel count.
func sameSchedule(got, want Result) bool {
	return slices.Equal(got.Completion, want.Completion) && got.Makespan == want.Makespan &&
		got.BusBusy == want.BusBusy && got.Channels == want.Channels
}

// TestDenseResourcesMatchMapEngine requires the slice-backed engine to
// reproduce the map-backed one exactly — == on every completion time,
// the makespan and the bus occupancy — under both arbiters, across
// channels, bus-only commands and shared resources.
func TestDenseResourcesMatchMapEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		reqs := randomChannelRequests(rng)
		for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
			want, err := mapScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSchedule(got, want) {
				t.Fatalf("trial %d %v: dense engine diverged from the map engine:\n got %+v\nwant %+v",
					trial, arb, got, want)
			}
		}
	}
}

// referenceScheduleWith is ScheduleWith as it stood before the in-flight
// scan, kept verbatim apart from its deleted Grow hook: every step
// re-checks every request, finished or not, and scans all of them. The
// scan must reproduce it bit-identically.
func referenceScheduleWith(reqs []Request, arb Arbiter) (Result, error) {
	if arb != ArbFIFO && arb != ArbOldestReady {
		return Result{}, fmt.Errorf("chansim: unknown arbiter %d", int(arb))
	}
	type state struct {
		cmds     []Cmd
		next     int     // next command index
		prevDone float64 // completion of the previous command
		done     bool
	}
	states := make([]state, len(reqs))
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
		if r.Channel+1 > channels {
			channels = r.Channel + 1
		}
		states[i] = state{cmds: r.Cmds}
	}

	busFree := make([]float64, channels)
	var local [64]float64
	resourceFree := append(local[:0], make([]float64, resources)...)
	res := Result{Completion: make([]float64, len(reqs)), Channels: channels}

	// refill records the completion time once a request is finished.
	refill := func(i int) {
		st := &states[i]
		if !st.done && st.next >= len(st.cmds) {
			st.done = true
		}
		if st.done && res.Completion[i] == 0 {
			res.Completion[i] = st.prevDone
			if st.prevDone > res.Makespan {
				res.Makespan = st.prevDone
			}
		}
	}

	for {
		// Find the request whose next command the arbiter favours.
		best := -1
		bestStart, bestReady := 0.0, 0.0
		for i := range reqs {
			refill(i)
			st := &states[i]
			if st.done {
				continue
			}
			c := st.cmds[st.next]
			start := st.prevDone
			if bf := busFree[reqs[i].Channel]; bf > start {
				start = bf
			}
			if c.Resource >= 0 && resourceFree[c.Resource] > start {
				start = resourceFree[c.Resource]
			}
			switch arb {
			case ArbFIFO:
				if best == -1 || start < bestStart {
					best, bestStart = i, start
				}
			case ArbOldestReady:
				if best == -1 || st.prevDone < bestReady ||
					//pinlint:ignore floateq exact tie-break on identical event times keeps arbitration deterministic
					(st.prevDone == bestReady && start < bestStart) {
					best, bestStart, bestReady = i, start, st.prevDone
				}
			}
		}
		if best == -1 {
			break // all done
		}
		st := &states[best]
		c := st.cmds[st.next]
		issueEnd := bestStart + c.Issue
		execEnd := bestStart + c.Exec
		if issueEnd > execEnd {
			execEnd = issueEnd
		}
		busFree[reqs[best].Channel] = issueEnd
		res.BusBusy += c.Issue
		if c.Resource >= 0 {
			resourceFree[c.Resource] = execEnd
		}
		st.prevDone = execEnd
		st.next++
	}
	return res, nil
}

// fuzzRequests decodes 1–24 requests on 1–3 channels from data: a
// request count, then per request a channel and a command count, then
// three bytes per command — issue and exec times in half units, so ties
// are common, and a resource in -1..5, so bus-only commands and banks
// shared between requests are common too. Bytes past the end read as 0.
func fuzzRequests(data []byte) []Request {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	reqs := make([]Request, 1+next()%24)
	for i := range reqs {
		ch := next() % 3
		cmds := make([]Cmd, next()%16)
		for j := range cmds {
			cmds[j] = Cmd{
				Issue:    float64(next()%5) * 0.5,
				Exec:     float64(next()%20) * 0.5,
				Resource: next()%7 - 1,
			}
		}
		reqs[i] = Request{Channel: ch, Cmds: cmds}
	}
	return reqs
}

// FuzzScheduleMatchesReference requires ScheduleWith to reproduce the
// full-rescan reference engine exactly under both arbiters: == on every
// completion time, the makespan, the bus occupancy and the channel count.
func FuzzScheduleMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := fuzzRequests(data)
		for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
			want, err := referenceScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSchedule(got, want) {
				t.Fatalf("%v: engine diverged from the reference:\n got %+v\nwant %+v", arb, got, want)
			}
		}
	})
}

// windowRequests builds n requests shaped like one batch window's on the
// given channel of a 4-channel, 16-bank geometry: each holds a 64-row
// OR's commands on its own bank (an MRS, the LWL reset, 64 activations,
// 4 sense steps, the write-back and the precharge, at PCM's timings),
// with BankResource's IDs, and all share the channel's command bus.
func windowRequests(channel, n int) []Request {
	const ns = 1e-9
	geo := memarch.Default()
	geo.BanksPerChip = 16
	reqs := make([]Request, n)
	for i := range reqs {
		bank := BankResource(memarch.RowAddr{Channel: channel, Bank: i % geo.BanksPerChip}, geo)
		cmds := []Cmd{{Issue: 1.25 * ns, Exec: 1.25 * ns, Resource: -1}, {Issue: 1.25 * ns, Exec: 1.25 * ns, Resource: bank}}
		cmds = append(cmds, Cmd{Issue: 1.25 * ns, Exec: 18.3 * ns, Resource: bank})
		for k := 1; k < 64; k++ {
			cmds = append(cmds, Cmd{Issue: 1.25 * ns, Exec: 1.25 * ns, Resource: bank})
		}
		for k := 0; k < 4; k++ {
			cmds = append(cmds, Cmd{Issue: 1.25 * ns, Exec: 8.9 * ns, Resource: bank})
		}
		cmds = append(cmds, Cmd{Issue: 1.25 * ns, Exec: 151.1 * ns, Resource: bank}, Cmd{Issue: 1.25 * ns, Exec: 1.25 * ns, Resource: bank})
		reqs[i] = Request{Cmds: cmds, Channel: channel}
	}
	return reqs
}

// TestScheduleWithAllocs pins the scheduler's allocations: a 16-request
// window allocates at most 3 times, under either arbiter, and a window on
// channel 3 allocates no more than the same window on channel 0. (While
// BankResource packed channels 64 ranks apart, channel 3's IDs sized the
// resource table to 3,088 entries and cost one more allocation.)
func TestScheduleWithAllocs(t *testing.T) {
	for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
		var perChannel [2]float64
		for i, channel := range []int{0, 3} {
			reqs := windowRequests(channel, 16)
			perChannel[i] = testing.AllocsPerRun(50, func() {
				if _, err := ScheduleWith(reqs, arb); err != nil {
					t.Fatal(err)
				}
			})
			if perChannel[i] > 3 {
				t.Errorf("%v: scheduling a 16-request window on channel %d allocated %v times, want at most 3",
					arb, channel, perChannel[i])
			}
		}
		if perChannel[1] > perChannel[0] {
			t.Errorf("%v: a channel-3 window allocates %v times, a channel-0 window %v", arb, perChannel[1], perChannel[0])
		}
	}
}

// BenchmarkScheduleWindow times one schedule of a 16-request window.
func BenchmarkScheduleWindow(b *testing.B) {
	reqs := windowRequests(0, 16)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ScheduleWith(reqs, ArbFIFO); err != nil {
			b.Fatal(err)
		}
	}
}

// Satellite property tests: makespan >= max standalone duration, bus
// utilisation <= 1, and determinism for a fixed seed.
func TestScheduleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		reqs := randomRequests(rng)
		for _, arb := range []Arbiter{ArbFIFO, ArbOldestReady} {
			res, err := ScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			maxDur := 0.0
			for _, r := range reqs {
				if d := r.Duration(); d > maxDur {
					maxDur = d
				}
			}
			if res.Makespan < maxDur-1e-12 {
				t.Fatalf("trial %d %v: makespan %g < max standalone duration %g", trial, arb, res.Makespan, maxDur)
			}
			if u := res.BusUtilisation(); u > 1+1e-12 {
				t.Fatalf("trial %d %v: bus utilisation %g > 1", trial, arb, u)
			}
			for i, c := range res.Completion {
				if c > res.Makespan {
					t.Fatalf("trial %d %v: completion[%d]=%g beyond makespan %g", trial, arb, i, c, res.Makespan)
				}
			}
			again, err := ScheduleWith(reqs, arb)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("trial %d %v: schedule not deterministic", trial, arb)
			}
		}
	}
}

func TestMultiChannelBusesAreIndependent(t *testing.T) {
	// Two pure-bus requests on different channels overlap fully; on one
	// channel they serialise.
	mk := func(ch int) Request {
		return Request{Channel: ch, Cmds: []Cmd{{Issue: 10, Exec: 0, Resource: -1}}}
	}
	same, err := Schedule([]Request{mk(0), mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(same.Makespan, 20, 1e-12) {
		t.Errorf("same channel makespan %g want 20", same.Makespan)
	}
	split, err := Schedule([]Request{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(split.Makespan, 10, 1e-12) {
		t.Errorf("two channels makespan %g want 10", split.Makespan)
	}
	if split.Channels != 2 {
		t.Errorf("channels %d want 2", split.Channels)
	}
	if !approx(split.BusUtilisation(), 1, 1e-12) {
		t.Errorf("two-channel utilisation %g want 1", split.BusUtilisation())
	}
	if _, err := Schedule([]Request{{Channel: -1}}); err == nil {
		t.Error("negative channel accepted")
	}
	if _, err := ScheduleWith(nil, Arbiter(99)); err == nil {
		t.Error("unknown arbiter accepted")
	}
}

func TestOldestReadyInterleavesFairly(t *testing.T) {
	// Two identical bus-command streams. FIFO's earliest-start/lowest
	// index rule drains request 0 completely before request 1 ever
	// issues; oldest-ready alternates between them (the request whose
	// previous command finished longest ago goes next), so the spread
	// between first and last completion shrinks while makespan and total
	// bus work stay identical.
	mk := func() Request {
		var cmds []Cmd
		for i := 0; i < 10; i++ {
			cmds = append(cmds, Cmd{Issue: 1, Exec: 0, Resource: -1})
		}
		return Request{Cmds: cmds}
	}
	reqs := []Request{mk(), mk()}

	fifo, err := ScheduleWith(reqs, ArbFIFO)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := ScheduleWith(reqs, ArbOldestReady)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(r Result) float64 {
		return math.Abs(r.Completion[0] - r.Completion[1])
	}
	if !approx(fifo.Makespan, fair.Makespan, 1e-12) {
		t.Errorf("makespan differs: fifo %g fair %g", fifo.Makespan, fair.Makespan)
	}
	if math.Abs(fifo.BusBusy-fair.BusBusy) > 1e-12 {
		t.Errorf("bus work differs: fifo %g fair %g", fifo.BusBusy, fair.BusBusy)
	}
	if spread(fifo) < 9 {
		t.Errorf("FIFO spread %g — expected head-of-line drain near 10", spread(fifo))
	}
	if spread(fair) >= spread(fifo) {
		t.Errorf("oldest-ready spread %g not tighter than FIFO's %g", spread(fair), spread(fifo))
	}
}

// Satellite regression: ThroughputCurve used to flatten every in-request
// resource to a single bank per copy (cc.Resource = i), erasing
// intra-request bank distinctness. Replicate must offset per copy instead.
func TestReplicatePreservesIntraRequestBanks(t *testing.T) {
	template := Request{Cmds: []Cmd{
		{Issue: 1, Exec: 10, Resource: 0},
		{Issue: 1, Exec: 10, Resource: 3},
		{Issue: 1, Exec: 0, Resource: -1},
	}}
	copies := Replicate(template, 3)
	if len(copies) != 3 {
		t.Fatalf("got %d copies", len(copies))
	}
	stride := template.ResourceStride()
	if stride != 4 {
		t.Fatalf("stride %d want 4", stride)
	}
	for i, r := range copies {
		if r.Cmds[0].Resource != i*stride || r.Cmds[1].Resource != i*stride+3 {
			t.Errorf("copy %d resources (%d,%d) lost intra-request distinctness (want %d,%d)",
				i, r.Cmds[0].Resource, r.Cmds[1].Resource, i*stride, i*stride+3)
		}
		if r.Cmds[2].Resource != -1 {
			t.Errorf("copy %d bus-only command got resource %d", i, r.Cmds[2].Resource)
		}
	}
	// Copies must be disjoint: scheduling k copies of a bank-bound
	// template scales ~k.
	curve, err := ThroughputCurve(template, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if gain := curve[1] / curve[0]; gain < 1.9 {
		t.Errorf("2 disjoint copies gained only %.2fx", gain)
	}
	// The original template is untouched by replication.
	if template.Cmds[0].Resource != 0 || template.Cmds[1].Resource != 3 {
		t.Error("Replicate mutated the template")
	}
}

func TestPercentilesOf(t *testing.T) {
	if p := PercentilesOf(nil); p != (Percentiles{}) {
		t.Errorf("empty sample gave %+v", p)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p := PercentilesOf(xs)
	if p.P50 != 50 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles %+v want p50=50 p99=99 max=100", p)
	}
	if !approx(p.Mean, 50.5, 1e-9) {
		t.Errorf("mean %g want 50.5", p.Mean)
	}
	one := PercentilesOf([]float64{7})
	if one.P50 != 7 || one.P99 != 7 || one.Max != 7 || one.Mean != 7 {
		t.Errorf("singleton percentiles %+v", one)
	}
}

// TestMonteCarloAggregates schedules a generator's replications and
// checks the aggregate: every replication is counted, the latency spread
// is ordered, and zero replications are rejected.
func TestMonteCarloAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sets := make([][]Request, 8)
	for rep := range sets {
		sets[rep] = make([]Request, 2+rng.Intn(4))
		for i := range sets[rep] {
			sets[rep][i] = Request{Cmds: []Cmd{
				{Issue: 1, Exec: 10 + float64(rng.Intn(50)), Resource: rng.Intn(4)},
			}}
		}
	}
	gen := func(rep int) ([]Request, error) { return sets[rep], nil }
	a, err := MonteCarlo(MCConfig{Replications: len(sets), Arb: ArbFIFO}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replications != len(sets) {
		t.Errorf("Replications = %d, want %d", a.Replications, len(sets))
	}
	if a.Latency.P99 < a.Latency.P50 {
		t.Errorf("p99 %g < p50 %g", a.Latency.P99, a.Latency.P50)
	}
	if _, err := MonteCarlo(MCConfig{Replications: 0}, gen); err == nil {
		t.Error("zero replications accepted")
	}
}

func BenchmarkScheduleFIFO(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sets [][]Request
	for i := 0; i < 16; i++ {
		sets = append(sets, randomRequests(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(sets[i%len(sets)]); err != nil {
			b.Fatal(err)
		}
	}
}
