package exec

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/units"
)

func benchWorkflow(b *testing.B, spec montage.Spec) *dag.Workflow {
	b.Helper()
	w, err := montage.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchRun(b *testing.B, spec montage.Spec, cfg Config) {
	b.Helper()
	w := benchWorkflow(b, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRegular1Deg measures one full 203-task simulation.
func BenchmarkRunRegular1Deg(b *testing.B) {
	benchRun(b, montage.OneDegree(), Config{Mode: datamgmt.Regular})
}

// BenchmarkRunCleanup1Deg adds the cleanup analyzer to the hot path.
func BenchmarkRunCleanup1Deg(b *testing.B) {
	benchRun(b, montage.OneDegree(), Config{Mode: datamgmt.Cleanup})
}

// BenchmarkRunRemoteIO1Deg exercises per-task staging (most events).
func BenchmarkRunRemoteIO1Deg(b *testing.B) {
	benchRun(b, montage.OneDegree(), Config{Mode: datamgmt.RemoteIO})
}

// BenchmarkRunRegular4Deg measures the 3,027-task simulation.
func BenchmarkRunRegular4Deg(b *testing.B) {
	benchRun(b, montage.FourDegree(), Config{Mode: datamgmt.Regular})
}

// BenchmarkSpotScheduleInstances samples the per-instance revocation
// schedule of a 128-processor fleet at 1 reclaim/h per instance over
// the ~177 h spot horizon of a 4-degree run: ~19.5k sorted reclaims.
func BenchmarkSpotScheduleInstances(b *testing.B) {
	horizon := units.Duration(177 * units.SecondsPerHour)
	for i := 0; i < b.N; i++ {
		if _, err := SpotScheduleInstances(horizon, 128, 1, 120, 600, 1); err != nil {
			b.Fatal(err)
		}
	}
}
