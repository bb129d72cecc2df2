package core

import (
	"testing"

	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/montage"
)

// BenchmarkRunSpot4Deg measures one 3,027-task spot run end to end
// through RunContext: a 128-processor fleet reclaimed at 1/h per
// instance, simulated with 300 s checkpoints costing 5 s each.  The run
// samples its per-instance reclaims window by window only as far as its
// 1.8 h makespan reaches into the 176.6 h spot horizon: 327 reclaims in
// two windows, of the whole schedule's 19,538.
func BenchmarkRunSpot4Deg(b *testing.B) {
	wf, err := montage.Generate(montage.FourDegree())
	if err != nil {
		b.Fatal(err)
	}
	plan := DefaultPlan()
	plan.Processors = 128
	plan.Spot = SpotPlan{RatePerHour: 1, Warning: 120, Downtime: 600, Seed: 1, Discount: 0.65}
	plan.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wf, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRemoteIOSpot4Deg is BenchmarkRunSpot4Deg in the remote
// I/O model, the costliest point of batch-eval's spot sweep: every task
// stages its own inputs and outputs, so reclaims land among five times
// the events of a resident run.
func BenchmarkRunRemoteIOSpot4Deg(b *testing.B) {
	wf, err := montage.Generate(montage.FourDegree())
	if err != nil {
		b.Fatal(err)
	}
	plan := DefaultPlan()
	plan.Mode = datamgmt.RemoteIO
	plan.Processors = 128
	plan.Spot = SpotPlan{RatePerHour: 1, Warning: 120, Downtime: 600, Seed: 1, Discount: 0.65}
	plan.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wf, plan); err != nil {
			b.Fatal(err)
		}
	}
}
