// Mixedfleet: run the 1-degree mosaic on a part-reliable, part-spot
// fleet.  The declarative SpotPlan samples seeded per-instance reclaims
// (heterogeneous warnings, per-instance downtime) over the revocable
// sub-pool only; the scheduler parks the critical-path tasks on the
// reliable processors, and the bill splits the CPU between the full and
// the discounted rate.  Utilization is reported against the capacity
// that was actually available, so the reclaim windows do not inflate it.
//
//	go run ./examples/mixedfleet
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/experiments"
)

func main() {
	wf, err := repro.Generate(repro.OneDegree())
	if err != nil {
		log.Fatal(err)
	}

	base := repro.DefaultPlan()
	base.Processors = 16
	onDemand, err := repro.Run(wf, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all on-demand: %v, %s, utilization %.3f\n",
		onDemand.Metrics.Makespan, onDemand.Cost.Total(), onDemand.Metrics.Utilization)

	// Sweep the fleet split: 0 reliable processors (all spot) up to 12.
	for _, reliable := range []int{0, 4, 8, 12} {
		plan := base
		plan.Spot = repro.SpotPlan{
			RatePerHour: 1.5, // per-instance Poisson reclaims
			Warning:     120,
			Downtime:    600,
			Seed:        2010,
			Discount:    0.65,
			OnDemand:    reliable,
		}
		plan.Recovery = repro.Recovery{Checkpoint: true, Interval: 300, Overhead: 10}
		res, err := repro.Run(wf, plan)
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		fmt.Printf("%2d reliable + %2d spot: %v, %s (%d preempted, %.0f CPU-s wasted, utilization %.3f)\n",
			reliable, m.Processors-reliable, m.Makespan, res.Cost.Total(),
			m.Preempted, m.WastedCPUSeconds, m.Utilization)
	}

	// The registered frontier, exactly as montagesim -exp mixed-fleet
	// and GET /v2/experiments/mixed-fleet serve it.
	frontier, err := experiments.MixedFleet(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, tbl := range frontier.Tables() {
		if err := tbl.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
