package pimrt

import (
	"math"
	"math/rand"
	"testing"

	"pinatubo/internal/bitvec"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

// requestSeconds lowers a program onto the channel scheduler and sums the
// durations of its commands: command sequences priced per command,
// verification passes at their recorded latency.
func requestSeconds(ctl *pim.Controller, p cmdstream.Program) float64 {
	mem := ctl.Memory()
	return p.Request(mem.Tech().Timing, ctl.Bus(), mem.Geometry()).Duration()
}

// With resilience off the program is exactly the plain controller command
// sequence — the zero-fault reproduction guarantee the planner relies on.
func TestTracePlainPathMatchesController(t *testing.T) {
	geo := memarch.Default()
	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{
		Ctl: ctl,
	}
	rows := []memarch.RowAddr{{Subarray: 0, Row: 0}, {Subarray: 0, Row: 1}}
	dst := memarch.RowAddr{Subarray: 0, Row: 5}
	res, err := s.Execute(sense.OpOR, rows, geo.RowBits(), dst)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Program.Len(); n != 1 {
		t.Fatalf("plain OR program has %d instructions, want 1", n)
	}
	in := res.Program.Instrs[0]
	if in.Kind != cmdstream.KindRequest || in.Cmds == nil {
		t.Fatalf("plain instruction should be a command request: %+v", in)
	}
	if got := requestSeconds(ctl, res.Program); got != res.Cost.Seconds {
		t.Errorf("request seconds %g != cost %g", got, res.Cost.Seconds)
	}
	// The instruction is the very command sequence a bare controller emits.
	ref, err := ctl.Execute(sense.OpOR, rows, geo.RowBits(), &dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Cmds) != len(ref.Commands) {
		t.Fatalf("program %d commands, controller %d", len(in.Cmds), len(ref.Commands))
	}
	for i := range in.Cmds {
		if in.Cmds[i] != ref.Commands[i] {
			t.Fatalf("command %d differs: %+v vs %+v", i, in.Cmds[i], ref.Commands[i])
		}
	}
}

// Under heavy faults the program grows with the ladder — retries, verify
// passes and host traffic all leave footprints — and its scheduled
// duration stays exactly the accumulated cost.
func TestTraceAccountsForResilienceExpansions(t *testing.T) {
	geo := memarch.Default()
	s, ctl := newResilientSched(t, geo, fault.Config{Seed: 17, SenseFlipRate: 1})
	rng := rand.New(rand.NewSource(4))
	const bits = 4096
	w := bitvec.WordsFor(bits)
	rows := make([]memarch.RowAddr, 128)
	for i := range rows {
		rows[i] = memarch.RowAddr{Subarray: 3, Row: i}
	}
	fillRows(t, ctl, rows, w, rng)
	dst := memarch.RowAddr{Subarray: 3, Row: 900}
	res, err := s.Execute(sense.OpOR, rows, bits, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The expanded program must be strictly longer than the one plain
	// request the zero-fault path would have issued, and must include
	// verification passes that occupy a bank.
	if n := res.Program.Len(); n < 3 {
		t.Fatalf("heavy-fault program has only %d instructions", n)
	}
	verifies := 0
	for _, in := range res.Program.Instrs {
		if in.Kind == cmdstream.KindVerify && in.Seconds > 0 {
			verifies++
		}
	}
	if verifies == 0 {
		t.Fatal("no verification passes in a verified schedule")
	}
	got := requestSeconds(ctl, res.Program)
	if math.Abs(got-res.Cost.Seconds) > res.Cost.Seconds*1e-12 {
		t.Errorf("request seconds %g != cost %g", got, res.Cost.Seconds)
	}
}
