package repro

// Benchmarks over the paper's evaluation.  BenchmarkExperiments
// regenerates every registered experiment (the tables the goldens in
// internal/experiments pin), one sub-benchmark per experiments.Registry
// entry; the sweep pair measures the parallel sweep engine against its
// serial reference.
//
// Run with:  go test -run xxx -bench . -benchmem

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/montage"
)

// BenchmarkExperiments runs each registered experiment at its default
// parameters.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(context.Background(), e.Name, experiments.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSweepWorkers runs the Question-1 grid of the 1-degree workflow
// (regular + cleanup run per pool size) through the sweep engine with a
// fixed worker count.  Comparing the two benchmarks below measures the
// wall-time win of the parallel sweep over the serial reference path.
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	wf, err := montage.Cached(montage.OneDegree())
	if err != nil {
		b.Fatal(err)
	}
	plan := DefaultPlan()
	s := experiments.Sweep[int, core.SweepPoint]{
		Name:    "bench-provisioning",
		Points:  GeometricProcessors(),
		Workers: workers,
		Run: func(ctx context.Context, n int) (core.SweepPoint, error) {
			points, err := core.ProvisioningSweepContext(ctx, wf, []int{n}, plan)
			if err != nil {
				return core.SweepPoint{}, err
			}
			return points[0], nil
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Do(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the serial reference: one worker walks the
// grid exactly like the seed's loop did.
func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepParallel is the same grid on a GOMAXPROCS-sized pool;
// results are byte-identical to the serial run (see the determinism
// test), only the wall-time changes.
func BenchmarkSweepParallel(b *testing.B) { benchSweepWorkers(b, 0) }
