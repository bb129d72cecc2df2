// Spot: run the 1-degree mosaic on interruptible capacity.  Spot
// markets (introduced by Amazon in 2009, the year after the paper) sell
// the same processors at a deep discount in exchange for the right to
// reclaim them mid-run; this example injects a seeded revocation
// schedule, shows what an unprotected run loses to killed attempts,
// how checkpoint/restart claws it back, and what the advisor would buy.
//
//	go run ./examples/spot
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

	// One spot market: 65% off CPU, 1.5 capacity reclaims per hour,
	// 2-minute warning, capacity back after 10 minutes of downtime.
	market := repro.Spot{Discount: 0.65, RevocationsPerHour: 1.5}
	sched, err := repro.SpotSchedule(4*3600, 8, market.RevocationsPerHour, 120, 600, 2009)
	if err != nil {
		log.Fatal(err)
	}
	if len(sched) == 0 {
		fmt.Println("sampled no revocations inside the horizon; try another seed")
	} else {
		fmt.Printf("sampled %d revocations; first at %v\n\n", len(sched), sched[0].Reclaim)
	}

	base := repro.DefaultPlan()
	base.Processors = 8
	onDemand, err := repro.Run(wf, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on-demand: %v, %s\n", onDemand.Metrics.Makespan, onDemand.Cost.Total())

	for _, recovery := range []repro.Recovery{
		{}, // re-run preempted tasks from scratch
		{Checkpoint: true, Interval: 300, Overhead: 10},
	} {
		plan := base
		plan.Pricing = market.Apply(repro.Amazon2008())
		plan.Preemptions = sched
		plan.Recovery = recovery
		res, err := repro.Run(wf, plan)
		if err != nil {
			log.Fatal(err)
		}
		name := "spot, restart from scratch"
		if recovery.Checkpoint {
			name = fmt.Sprintf("spot, checkpoint every %v", recovery.Interval)
		}
		fmt.Printf("%s: %v, %s (%d preempted, %.0f CPU-s wasted, %d checkpoints)\n",
			name, res.Metrics.Makespan, res.Cost.Total(),
			res.Metrics.Preempted, res.Metrics.WastedCPUSeconds, res.Metrics.Checkpoints)
	}

	// The full frontier experiment, exactly as montagesim -exp
	// spot-frontier and GET /v2/experiments/spot-frontier serve it.
	frontier, err := experiments.SpotFrontier(context.Background())
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
