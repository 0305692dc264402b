package chansim_test

import (
	"math"
	"testing"

	"pinatubo/internal/chansim"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleRequestMatchesDuration(t *testing.T) {
	r := chansim.Request{Cmds: []chansim.Cmd{
		{Issue: 1, Exec: 10, Resource: 0},
		{Issue: 1, Exec: 5, Resource: 0},
		{Issue: 1, Exec: 0, Resource: -1},
	}}
	res, err := chansim.Schedule([]chansim.Request{r})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Makespan, r.Duration(), 1e-12) {
		t.Errorf("makespan %g want %g", res.Makespan, r.Duration())
	}
	if res.Completion[0] != res.Makespan {
		t.Error("completion mismatch")
	}
}

func TestTwoBanksOverlap(t *testing.T) {
	// Two requests on different banks overlap almost fully: the makespan
	// approaches one request's duration plus the issue-slot skew.
	mk := func(bank int) chansim.Request {
		return chansim.Request{Cmds: []chansim.Cmd{
			{Issue: 1, Exec: 100, Resource: bank},
			{Issue: 1, Exec: 100, Resource: bank},
		}}
	}
	res, err := chansim.Schedule([]chansim.Request{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 210 {
		t.Errorf("different banks did not overlap: makespan %g", res.Makespan)
	}
	if res.Makespan < 200 {
		t.Errorf("makespan %g below a single request's work", res.Makespan)
	}
}

func TestSameBankSerialises(t *testing.T) {
	mk := func() chansim.Request {
		return chansim.Request{Cmds: []chansim.Cmd{{Issue: 1, Exec: 100, Resource: 7}}}
	}
	res, err := chansim.Schedule([]chansim.Request{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 200 {
		t.Errorf("same bank overlapped: makespan %g", res.Makespan)
	}
}

func TestBusSerialisesIssue(t *testing.T) {
	// Pure bus commands cannot overlap at all.
	mk := func() chansim.Request {
		return chansim.Request{Cmds: []chansim.Cmd{{Issue: 10, Exec: 0, Resource: -1}}}
	}
	res, err := chansim.Schedule([]chansim.Request{mk(), mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Makespan, 30, 1e-12) {
		t.Errorf("makespan %g want 30", res.Makespan)
	}
	if !approx(res.BusUtilisation(), 1, 1e-12) {
		t.Errorf("bus utilisation %g want 1", res.BusUtilisation())
	}
}

func TestNegativeTimesRejected(t *testing.T) {
	if _, err := chansim.Schedule([]chansim.Request{{Cmds: []chansim.Cmd{{Issue: -1}}}}); err == nil {
		t.Error("negative issue accepted")
	}
}

func TestEmptySchedule(t *testing.T) {
	res, err := chansim.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.BusUtilisation() != 0 {
		t.Error("empty schedule not zero")
	}
}

func TestThroughputCurveMonotone(t *testing.T) {
	template := chansim.Request{Cmds: []chansim.Cmd{
		{Issue: 1, Exec: 50, Resource: 0},
		{Issue: 1, Exec: 150, Resource: 0},
	}}
	ks := []int{1, 2, 4, 8}
	curve, err := chansim.ThroughputCurve(template, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]*0.999 {
			t.Errorf("throughput dropped at k=%d: %g -> %g", ks[i], curve[i-1], curve[i])
		}
	}
	// With a 2-slot bus footprint and 200 time units of bank work, tens of
	// requests fit before the bus saturates: k=8 ≈ 8x k=1.
	if curve[3] < 7*curve[0] {
		t.Errorf("k=8 speedup only %.1fx", curve[3]/curve[0])
	}
	if _, err := chansim.ThroughputCurve(template, []int{0}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSaturationPoint(t *testing.T) {
	// Bus-bound template: issue dominates, so extra in-flight requests add
	// nothing — saturation at k=1.
	busBound := chansim.Request{Cmds: []chansim.Cmd{{Issue: 100, Exec: 100, Resource: 0}}}
	k, err := chansim.SaturationPoint(busBound, []int{1, 2, 4}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("bus-bound saturation at k=%d want 1", k)
	}
	// Bank-bound template: scales far beyond 4.
	bankBound := chansim.Request{Cmds: []chansim.Cmd{{Issue: 1, Exec: 1000, Resource: 0}}}
	k, err = chansim.SaturationPoint(bankBound, []int{1, 2, 4, 8}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k < 8 {
		t.Errorf("bank-bound saturation at k=%d want 8 (unsaturated)", k)
	}
}

// TestPinatuboOpConcurrency bridges a real controller command sequence and
// checks the evaluation's conservative parallelism assumption: a 2-row
// intra OR is bank-execution-bound, so several could overlap per channel —
// the fixed Parallelism()=channels undersells, never oversells, Pinatubo.
func TestPinatuboOpConcurrency(t *testing.T) {
	mem, err := memarch.NewMemory(memarch.Default(), nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []memarch.RowAddr{{Bank: 0, Subarray: 0, Row: 0}, {Bank: 0, Subarray: 0, Row: 1}}
	dst := memarch.RowAddr{Bank: 0, Subarray: 0, Row: 5}
	res, err := ctl.Execute(sense.OpOR, srcs, 1<<19, &dst)
	if err != nil {
		t.Fatal(err)
	}
	tech := nvm.Get(nvm.PCM)
	req := chansim.FromDDR(res.Commands, tech.Timing, ddr.DefaultBus(), memarch.Default())

	// Standalone duration must agree with the controller's own pricing.
	if !approx(req.Duration(), res.Seconds, res.Seconds*0.05) {
		t.Errorf("chansim duration %.4g vs controller %.4g", req.Duration(), res.Seconds)
	}

	curve, err := chansim.ThroughputCurve(req, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// At least the assumed 4x overlap must be available per channel when
	// requests hit distinct banks.
	if gain := curve[1] / curve[0]; gain < 3.5 {
		t.Errorf("4 in-flight ops gained only %.2fx — the Parallelism=4 assumption oversells", gain)
	}
}

func TestFromDDRMapsResources(t *testing.T) {
	tech := nvm.Get(nvm.PCM)
	cmds := []ddr.Cmd{
		{Kind: ddr.CmdMRS},
		{Kind: ddr.CmdAct, Addr: memarch.RowAddr{Bank: 3}},
		{Kind: ddr.CmdRd, Bits: 8192},
	}
	req := chansim.FromDDR(cmds, tech.Timing, ddr.DefaultBus(), memarch.Default())
	if req.Cmds[0].Resource != -1 {
		t.Error("MRS should be bus-only")
	}
	if req.Cmds[1].Resource != 3 {
		t.Errorf("ACT resource %d want 3", req.Cmds[1].Resource)
	}
	// The data burst occupies the bus for its transfer time.
	if req.Cmds[2].Issue != req.Cmds[2].Exec {
		t.Error("RD burst should hold the bus for its transfer")
	}
}
