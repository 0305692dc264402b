package pinatubo

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pinatubo/internal/chansim"
	"pinatubo/internal/pimrt"
	"pinatubo/internal/sense"
)

// planReference captures one bare controller-level OR trace from an
// identically configured system and lowers it to a chansim template, the
// way a caller without the Plan API would set up a saturation study.
func planReference(t *testing.T) chansim.Request {
	t.Helper()
	ref := newSys(t)
	rows, err := ref.alloc.AllocGroupRows(ref.MaxORRows())
	if err != nil {
		t.Fatal(err)
	}
	geo := ref.mem.Geometry()
	sr, err := ref.sched.Execute(sense.OpOR, rows, ref.RowBits(), pimrt.ScratchRow(geo, rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Program.Len() != 1 || sr.Program.Instrs[0].Cmds == nil {
		t.Fatalf("zero-fault OR program has %d instructions, want 1 command request", sr.Program.Len())
	}
	tmpl := chansim.FromDDR(sr.Program.Instrs[0].Cmds, ref.mem.Tech().Timing, ref.ctl.Bus(), geo)
	if d := tmpl.Duration(); d != sr.Cost.Seconds {
		t.Fatalf("template duration %g != scheduled cost %g", d, sr.Cost.Seconds)
	}
	return tmpl
}

func TestPlanZeroFaultMatchesChansim(t *testing.T) {
	const concurrency = 16
	sys := newSys(t)
	rep, err := sys.Plan(OpOr, concurrency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != 1 {
		t.Errorf("zero-fault Replications=%d want 1", rep.Replications)
	}

	template := planReference(t)
	ks := planKs(concurrency)
	sat, err := chansim.SaturationPoint(template, ks, planFrac)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SaturationPoint != sat {
		t.Errorf("Plan saturation %d != chansim.SaturationPoint %d", rep.SaturationPoint, sat)
	}
	curve, err := chansim.ThroughputCurve(template, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(ks) {
		t.Fatalf("plan has %d points want %d", len(rep.Points), len(ks))
	}
	for i, p := range rep.Points {
		if p.Concurrency != ks[i] {
			t.Errorf("point %d concurrency %d want %d", i, p.Concurrency, ks[i])
		}
		// Bit-identical, not approximately equal: the plan replays the
		// same trace through the same scheduler in the same order.
		if p.Throughput != curve[i] {
			t.Errorf("point k=%d throughput %v != chansim curve %v", p.Concurrency, p.Throughput, curve[i])
		}
		if p.BusUtilisation < 0 || p.BusUtilisation > 1 {
			t.Errorf("point k=%d bus utilisation %v outside 0..1", p.Concurrency, p.BusUtilisation)
		}
	}
	if rep.Headroom < 1 {
		t.Errorf("zero-fault headroom %v < 1", rep.Headroom)
	}
}

func TestPlanDeterministicForSeed(t *testing.T) {
	run := func() PlanReport {
		rep, err := newSys(t).Plan(OpOr, 4, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ for identical config and seed:\n%+v\n%+v", a, b)
	}
}

func TestPlanFaultySanity(t *testing.T) {
	rep, err := newSys(t).Plan(OpXor, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != planReplications {
		t.Errorf("faulty Replications=%d want %d", rep.Replications, planReplications)
	}
	sawSat := false
	for _, p := range rep.Points {
		if p.Throughput <= 0 {
			t.Errorf("k=%d throughput %v not positive", p.Concurrency, p.Throughput)
		}
		if p.Latency.P99 < p.Latency.P50 || p.Latency.Max < p.Latency.P99 || p.Latency.P50 <= 0 {
			t.Errorf("k=%d latency ordering violated: %+v", p.Concurrency, p.Latency)
		}
		if p.Concurrency == rep.SaturationPoint {
			sawSat = true
		}
	}
	if !sawSat {
		t.Errorf("saturation point %d not among explored levels %+v", rep.SaturationPoint, rep.Points)
	}
	if rep.Headroom <= 0 {
		t.Errorf("headroom %v not positive", rep.Headroom)
	}
}

// TestPlanArbitersDivergeUnderLoad pins the reason WithArbiter exists: under
// load the arbitration policy is visible in the completion-time tail.
// FIFO issues for whichever request can start earliest, oldest-ready for
// whichever has waited longest, and with 16 operations contending for one
// channel those choices produce different p99s (and throughputs). If a
// refactor made the arbiters collapse into one policy, this test catches
// it.
func TestPlanArbitersDivergeUnderLoad(t *testing.T) {
	const concurrency = 16
	sys := newSys(t)
	fifo, err := sys.Plan(OpOr, concurrency, 0, WithArbiter(ArbFIFO))
	if err != nil {
		t.Fatal(err)
	}
	oldest, err := sys.Plan(OpOr, concurrency, 0, WithArbiter(ArbOldestReady))
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Arb != ArbFIFO || oldest.Arb != ArbOldestReady {
		t.Errorf("reports record Arb %v and %v, want %v and %v",
			fifo.Arb, oldest.Arb, ArbFIFO, ArbOldestReady)
	}
	fp := fifo.Points[len(fifo.Points)-1]
	op := oldest.Points[len(oldest.Points)-1]
	if fp.Latency.P99 == op.Latency.P99 {
		t.Errorf("fifo and oldest-ready p99 identical at k=%d: %v", concurrency, fp.Latency.P99)
	}
	if fp.Throughput == op.Throughput {
		t.Errorf("fifo and oldest-ready throughput identical at k=%d: %v", concurrency, fp.Throughput)
	}

	// A bare Plan defaults to FIFO: identical reports, field for field.
	plain, err := sys.Plan(OpOr, concurrency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, fifo) {
		t.Errorf("Plan != Plan(WithArbiter(ArbFIFO)):\n%+v\n%+v", plain, fifo)
	}
}

func TestArbiterString(t *testing.T) {
	if s := ArbFIFO.String(); s != "fifo" {
		t.Errorf("ArbFIFO.String() = %q", s)
	}
	if s := ArbOldestReady.String(); s != "oldest-ready" {
		t.Errorf("ArbOldestReady.String() = %q", s)
	}
}

func TestPlanRejectsBadInputs(t *testing.T) {
	s := newSys(t)
	if _, err := s.Plan(OpOr, 0, 0); err == nil {
		t.Error("concurrency 0 accepted")
	}
	if _, err := s.Plan(OpOr, 4, -0.5); err == nil {
		t.Error("negative fault rate accepted")
	}
	if _, err := s.Plan(OpOr, 4, 1.5); err == nil {
		t.Error("fault rate > 1 accepted")
	}
	if _, err := s.Plan(OpOr, 4, math.NaN()); err == nil {
		t.Error("NaN fault rate accepted")
	}
	if _, err := s.Plan(OpPopcount, 4, 0); err == nil {
		t.Error("OpPopcount accepted as a channel operation")
	}
	if _, err := s.Plan(OpOr, 4, 0, WithArbiter(Arbiter(99))); err == nil {
		t.Error("unknown arbiter accepted")
	}
}

// everyCopyTraces is the reference for sampleTraces: it executes the
// planned op once per copy, each into the previous copy's destination,
// and offsets every copy by the widest stride.
func everyCopyTraces(t *testing.T, s *System, op Op, concurrency int, faultRate float64, rep int) []chansim.Request {
	t.Helper()
	cfg := s.cfg
	cfg.Fault = FaultConfig{Seed: s.cfg.Fault.Seed + int64(rep), SenseFlipRate: faultRate}
	sb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sop, err := op.internal()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sb.planOperands(op)
	if err != nil {
		t.Fatal(err)
	}
	geo := sb.mem.Geometry()
	dst := pimrt.ScratchRow(geo, rows[0])
	reqs := make([]chansim.Request, concurrency)
	for i := range reqs {
		sr, err := sb.sched.Execute(sop, rows, sb.RowBits(), dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = sr.FinalDst
		reqs[i] = sr.Program.Request(sb.mem.Tech().Timing, sb.ctl.Bus(), geo)
	}
	stride := 1
	for _, r := range reqs {
		stride = max(stride, r.ResourceStride())
	}
	for i := range reqs {
		reqs[i] = reqs[i].WithResourceOffset(i * stride)
	}
	return reqs
}

// TestPlanFaultFreeSamplesOnce pins the fault-free plan's single sample:
// copying one execution's request into every slot gives exactly the
// traces of executing every copy, for every technology, verification
// mode, replication and a live fault model the plan's sandbox drops.
func TestPlanFaultFreeSamplesOnce(t *testing.T) {
	geo := DefaultGeometry()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"pcm", Config{Tech: PCM, Geometry: geo}},
		{"stt-mram", Config{Tech: STTMRAM, Geometry: geo}},
		{"reram", Config{Tech: ReRAM, Geometry: geo}},
		{"dram", Config{Tech: DRAM, Geometry: geo}},
		{"pcm-ecc", Config{Tech: PCM, Geometry: geo,
			Resilience: ResilienceConfig{Verify: VerifyECC}}},
		{"pcm-readback", Config{Tech: PCM, Geometry: geo,
			Resilience: ResilienceConfig{Verify: VerifyReadback}}},
		{"pcm-replicated", Config{Tech: PCM, Geometry: geo,
			Resilience: ResilienceConfig{Verify: VerifyReadback, Replicate: 3}}},
		{"pcm-live-flips-and-wear", Config{Tech: PCM, Geometry: geo,
			Fault: FaultConfig{Seed: 5, SenseFlipRate: 1e-3, WearLimit: 1}}},
	}
	const concurrency = 16
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []Op{OpOr, OpAnd, OpXor, OpNot} {
				got, err := s.sampleTraces(op, concurrency, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if want := everyCopyTraces(t, s, op, concurrency, 0, 0); !reflect.DeepEqual(got, want) {
					t.Errorf("%v: the single sample's traces differ from executing every copy", op)
				}
			}
		})
	}
}

// TestPlanFaultySamplesEveryCopy pins the other side of the single
// sample: with faults each copy draws its own trace, so a faulty plan's
// traces are those of executing every copy, and they differ.
func TestPlanFaultySamplesEveryCopy(t *testing.T) {
	const concurrency, rate = 4, 1e-3
	s := newSys(t)
	got, err := s.sampleTraces(OpOr, concurrency, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := everyCopyTraces(t, s, OpOr, concurrency, rate, 0); !reflect.DeepEqual(got, want) {
		t.Error("a faulty sample's traces differ from executing every copy")
	}
	stride := 1
	for _, r := range got {
		stride = max(stride, r.ResourceStride())
	}
	for i := 1; i < len(got); i++ {
		if reflect.DeepEqual(got[0].WithResourceOffset(i*stride), got[i]) {
			t.Errorf("faulty copy %d repeats copy 0's trace", i)
		}
	}
}

// TestPlanDuringWindow plans on the owning goroutine between a window's
// Start and Wait, as BatchRun allows, while the window's workers run. The
// window must end exactly as a twin's that did not plan, and the report
// must equal a fresh System's. Under SECDED with sense flips the owner
// also reads a vector the window does not touch, on both twins, so the
// owner and the workers use the System's program cache at once; the read
// must return the vector's words.
func TestPlanDuringWindow(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		read bool
	}{
		{"ideal", Config{Tech: PCM, Geometry: spreadGeometry()}, false},
		{"ecc-flips", Config{Tech: PCM, Geometry: spreadGeometry(),
			Resilience: ResilienceConfig{Verify: VerifyECC},
			Fault:      FaultConfig{Seed: 5, SenseFlipRate: 1e-3}}, true},
	} {
		t.Run(c.name, func(t *testing.T) { planDuringWindow(t, c.cfg, c.read) })
	}
}

func planDuringWindow(t *testing.T, cfg Config, read bool) {
	systems := make([]*System, 3)
	for i := range systems {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = s
	}
	sys, twin, fresh := systems[0], systems[1], systems[2]
	const bits = 4096
	ops := buildBatchOps(t, sys, bits)
	twinOps := buildBatchOps(t, twin, bits)
	// idle is a vector no op of the window names, with the same words on
	// both twins.
	idleWords := make([]uint64, bits/64)
	for i := range idleWords {
		idleWords[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	idle := func(s *System) *BitVector {
		t.Helper()
		v, err := s.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(v, idleWords); err != nil {
			t.Fatal(err)
		}
		return v
	}
	sysIdle, twinIdle := idle(sys), idle(twin)
	readIdle := func(s *System, v *BitVector) {
		t.Helper()
		if !read {
			return
		}
		got, _, err := s.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, idleWords) {
			t.Error("a read during the window returned other words than the vector holds")
		}
	}

	window := func(s *System, ops []BatchOp, between func()) BatchResult {
		t.Helper()
		b := s.NewBatchBuilder()
		for _, op := range ops {
			if err := b.Add(op); err != nil {
				t.Fatal(err)
			}
		}
		run, err := b.Start()
		if err != nil {
			t.Fatal(err)
		}
		between()
		br, err := run.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	var rep PlanReport
	got := window(sys, ops, func() {
		var err error
		if rep, err = sys.Plan(OpOr, 16, 0); err != nil {
			t.Fatal(err)
		}
		readIdle(sys, sysIdle)
	})
	want := window(twin, twinOps, func() { readIdle(twin, twinIdle) })

	if !reflect.DeepEqual(got, want) {
		t.Errorf("window that planned:\n%+v\ntwin's:\n%+v", got, want)
	}
	if a, b := sys.Stats(), twin.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("Stats %+v, twin %+v", a, b)
	}
	if a, b := sys.HardwareCounters(), twin.HardwareCounters(); !reflect.DeepEqual(a, b) {
		t.Errorf("HardwareCounters %+v, twin %+v", a, b)
	}
	if a, b := sys.FaultStats(), twin.FaultStats(); a != b {
		t.Errorf("FaultStats %+v, twin %+v", a, b)
	}
	if p := sys.PerfStats(); p.ProgramCacheHits+p.ProgramCacheMisses == 0 {
		t.Errorf("no request looked up the program cache: %+v", p)
	}
	for i := range ops {
		vecs := append([]*BitVector{ops[i].Dst}, ops[i].Srcs...)
		twinVecs := append([]*BitVector{twinOps[i].Dst}, twinOps[i].Srcs...)
		for j := range vecs {
			wa, _, err := sys.Read(vecs[j])
			if err != nil {
				t.Fatal(err)
			}
			wb, _, err := twin.Read(twinVecs[j])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wa, wb) {
				t.Errorf("op %d (%v) vector %d diverges from the twin", i, ops[i].Op, j)
			}
		}
	}

	wantRep, err := fresh.Plan(OpOr, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Errorf("plan during the window:\n%+v\nwant a fresh System's\n%+v", rep, wantRep)
	}
}

// TestPlanPricesReplication pins that a replicated System plans the voted
// requests its Apply issues: with read-back verification on and no
// faults, Replicate 3 lengthens every op's one-in-flight makespan over an
// unreplicated twin's, by the extra activation group per replica and the
// replica refreshes. (A plan that took its operands without replicas
// priced both alike: an AND read 7.516 µs either way.) On spreadGeometry,
// whose subarrays hold 255 usable rows, a replicated OR plans the deepest
// group that fits with its replicas instead of failing to allocate.
func TestPlanPricesReplication(t *testing.T) {
	plan := func(geo Geometry, replicate int, op Op) time.Duration {
		t.Helper()
		s, err := New(Config{Tech: PCM, Geometry: geo,
			Resilience: ResilienceConfig{Verify: VerifyReadback, Replicate: replicate}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Plan(op, 4, 0)
		if err != nil {
			t.Fatalf("Replicate %d %v: %v", replicate, op, err)
		}
		return rep.Points[0].Makespan
	}
	for _, op := range []Op{OpOr, OpAnd, OpXor, OpNot} {
		plain, voted := plan(DefaultGeometry(), 0, op), plan(DefaultGeometry(), 3, op)
		t.Logf("%v: k=1 makespan %v unreplicated, %v with Replicate 3", op, plain, voted)
		if voted <= plain {
			t.Errorf("%v: a replicated plan's makespan %v does not exceed the unreplicated %v", op, voted, plain)
		}
	}
	for _, r := range []int{3, 5, 7} {
		plan(spreadGeometry(), r, OpOr)
	}
}
