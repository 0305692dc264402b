// Planner example: use the public concurrency-planning API to decide how
// many deep ORs to keep in flight, first on a fault-free system and then
// under an injected sense-error rate where the resilience ladder widens
// every trace. As a sanity check, the fault-free saturation point is
// recomputed the long way — a bare controller command trace replayed
// through the channel scheduler — and must agree exactly.
//
//	go run ./examples/planner
package main

import (
	"fmt"
	"log"
	"time"

	"pinatubo"
	"pinatubo/internal/chansim"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
)

const concurrency = 16

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := pinatubo.DefaultConfig()
	cfg.Fault = pinatubo.FaultConfig{Seed: 1}
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return err
	}

	// How does throughput scale with in-flight deep ORs on clean cells?
	clean, err := sys.Plan(pinatubo.OpOr, concurrency, 0)
	if err != nil {
		return err
	}
	show("fault-free", clean)

	// And once one bit in 10^5 flips at the sense margin floor? The plan
	// samples the resilience ladder's retries, depth splits and
	// verification passes into the traces it schedules.
	faulty, err := sys.Plan(pinatubo.OpOr, concurrency, 1e-5)
	if err != nil {
		return err
	}
	show("rate 1e-5", faulty)

	// Cross-check: the fault-free answer is what scheduling a bare
	// controller trace says, computed here without the Plan API.
	sat, err := saturationTheLongWay(sys.MaxORRows())
	if err != nil {
		return err
	}
	if sat != clean.SaturationPoint {
		return fmt.Errorf("plan says %d, direct chansim says %d", clean.SaturationPoint, sat)
	}
	fmt.Printf("cross-check: direct chansim.SaturationPoint agrees: %d in flight\n", sat)
	return nil
}

func show(label string, rep pinatubo.PlanReport) {
	fmt.Printf("%s: saturates at %d in flight, headroom %.2fx\n",
		label, rep.SaturationPoint, rep.Headroom)
	for _, p := range rep.Points {
		fmt.Printf("  k=%-3d %12.0f ops/s   p50 %-10v p99 %-10v\n",
			p.Concurrency, p.Throughput,
			p.Latency.P50.Round(10*time.Nanosecond),
			p.Latency.P99.Round(10*time.Nanosecond))
	}
}

// saturationTheLongWay rebuilds the fault-free plan from first principles:
// execute one maximally deep OR on a bare controller, lower its DDR
// command sequence into a schedulable request, and ask the channel
// simulator where replication stops paying.
func saturationTheLongWay(depth int) (int, error) {
	geo := memarch.Default()
	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		return 0, err
	}
	ctl, err := pim.NewController(mem, 0)
	if err != nil {
		return 0, err
	}
	srcs := make([]memarch.RowAddr, depth)
	for i := range srcs {
		srcs[i] = memarch.RowAddr{Subarray: 0, Row: i}
	}
	dst := memarch.RowAddr{Subarray: 0, Row: geo.RowsPerSubarray - 1}
	res, err := ctl.Execute(sense.OpOR, srcs, geo.RowBits(), &dst)
	if err != nil {
		return 0, err
	}
	req := chansim.FromDDR(res.Commands,
		nvm.Get(nvm.PCM).Timing, ddr.DefaultBus(), geo)
	var ks []int
	for k := 1; k < concurrency; k *= 2 {
		ks = append(ks, k)
	}
	ks = append(ks, concurrency)
	return chansim.SaturationPoint(req, ks, 0.05)
}
