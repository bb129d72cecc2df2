package montage

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/units"
)

func TestPresetTaskCounts(t *testing.T) {
	// §5 of the paper: 203 / 731 / 3,027 application tasks.
	tests := []struct {
		spec Spec
		want int
	}{
		{OneDegree(), 203},
		{TwoDegree(), 731},
		{FourDegree(), 3027},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			if got := tt.spec.TaskCount(); got != tt.want {
				t.Fatalf("TaskCount = %d, want %d", got, tt.want)
			}
			w, err := Generate(tt.spec)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if got := w.NumTasks(); got != tt.want {
				t.Errorf("generated %d tasks, want %d", got, tt.want)
			}
		})
	}
}

func TestPresetCPUAnchors(t *testing.T) {
	// Fig. 10: CPU costs $0.56/$2.03/$8.40 at $0.10/CPU-hour imply
	// 5.6/20.3/84 total CPU-hours.
	tests := []struct {
		spec      Spec
		wantHours float64
	}{
		{OneDegree(), 5.6},
		{TwoDegree(), 20.3},
		{FourDegree(), 84},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			w, err := Generate(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := w.TotalRuntime().Hours()
			if math.Abs(got-tt.wantHours) > 1e-6*tt.wantHours {
				t.Errorf("TotalRuntime = %v h, want %v h", got, tt.wantHours)
			}
		})
	}
}

func TestPresetCCRAnchors(t *testing.T) {
	// §6.3 CCR table: 0.053 / 0.053 / 0.045 at 10 Mbps.
	tests := []struct {
		spec Spec
		want float64
	}{
		{OneDegree(), 0.053},
		{TwoDegree(), 0.053},
		{FourDegree(), 0.045},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			w, err := Generate(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := w.CCR(units.Mbps(10))
			if math.Abs(got-tt.want) > 0.001 {
				t.Errorf("CCR = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPresetMosaicSizes(t *testing.T) {
	// §6 Q3: mosaic sizes 173.46 MB / 557.9 MB / 2.229 GB.
	tests := []struct {
		spec Spec
		want units.Bytes
	}{
		{OneDegree(), units.Bytes(173.46 * units.MB)},
		{TwoDegree(), units.Bytes(557.9 * units.MB)},
		{FourDegree(), units.Bytes(2.229 * units.GB)},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			w, err := Generate(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			f := w.File("mosaic.fits")
			if f == nil {
				t.Fatal("no mosaic.fits in workflow")
			}
			if f.Size != tt.want {
				t.Errorf("mosaic size = %d, want %d", f.Size, tt.want)
			}
			if !f.Output {
				t.Error("mosaic.fits not marked as output")
			}
		})
	}
}

func TestStructureLevels(t *testing.T) {
	w, err := Generate(OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MaxLevel(); got != 8 {
		t.Fatalf("MaxLevel = %d, want 8", got)
	}
	wantWidths := map[int]int{
		1: 45, 2: 108, 3: 1, 4: 1, 5: 45, 6: 1, 7: 1, 8: 1,
	}
	for lv, want := range wantWidths {
		if got := len(w.TasksAtLevel(lv)); got != want {
			t.Errorf("level %d width = %d, want %d", lv, got, want)
		}
	}
	// Level 1 must be all mProject, level 2 all mDiffFit.
	for _, task := range w.TasksAtLevel(1) {
		if task.Type != "mProject" {
			t.Errorf("level-1 task %q has type %q", task.Name, task.Type)
		}
	}
	for _, task := range w.TasksAtLevel(2) {
		if task.Type != "mDiffFit" {
			t.Errorf("level-2 task %q has type %q", task.Name, task.Type)
		}
	}
}

func TestMaxParallelism(t *testing.T) {
	w, err := Generate(FourDegree())
	if err != nil {
		t.Fatal(err)
	}
	// The widest level is mDiffFit with D tasks.
	if got := w.MaxParallelism(); got != 1698 {
		t.Errorf("MaxParallelism = %d, want 1698", got)
	}
}

func TestExternalInputsAndOutputs(t *testing.T) {
	s := OneDegree()
	w, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	ins := w.ExternalInputs()
	// N input images + the template header.
	if got := len(ins); got != s.Images+1 {
		t.Fatalf("ExternalInputs = %d, want %d", got, s.Images+1)
	}
	outs := w.OutputFiles()
	if got := len(outs); got != 2 { // mosaic.fits + mosaic.jpg
		t.Fatalf("OutputFiles = %d, want 2", got)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalFileBytes() != b.TotalFileBytes() {
		t.Error("same spec produced different total bytes")
	}
	if a.TotalRuntime() != b.TotalRuntime() {
		t.Error("same spec produced different total runtime")
	}
	for i, task := range a.Tasks() {
		if task.Runtime != b.Tasks()[i].Runtime {
			t.Fatalf("task %d runtime differs between runs", i)
		}
	}
	// A different seed must change per-task values but not aggregates.
	s := OneDegree()
	s.Seed = 77
	c, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TotalRuntime().Hours()-5.6) > 1e-6 {
		t.Errorf("seed change broke runtime calibration: %v", c.TotalRuntime().Hours())
	}
	same := true
	for i, task := range a.Tasks() {
		if task.Runtime != c.Tasks()[i].Runtime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runtimes")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"too few images", func(s *Spec) { s.Images = 1 }},
		{"no diffs", func(s *Spec) { s.Diffs = 0 }},
		{"zero cpu", func(s *Spec) { s.TotalCPU = 0 }},
		{"zero mosaic", func(s *Spec) { s.MosaicBytes = 0 }},
		{"negative ccr", func(s *Spec) { s.TargetCCR = -1 }},
		{"ccr without bandwidth", func(s *Spec) { s.Bandwidth = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := OneDegree()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted invalid spec")
			}
			if _, err := Generate(s); err == nil {
				t.Error("Generate accepted invalid spec")
			}
		})
	}
	good := OneDegree()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestUnreachableCCRRejected(t *testing.T) {
	s := OneDegree()
	s.TargetCCR = 1e-9 // fixed files alone exceed the byte budget
	if _, err := Generate(s); !errors.Is(err, ErrCCRUnreachable) {
		t.Errorf("Generate of an unreachable CCR target: err = %v, want ErrCCRUnreachable", err)
	}
}

func TestFromDegrees(t *testing.T) {
	s := FromDegrees(6, 6)
	if err := s.Validate(); err != nil {
		t.Fatalf("FromDegrees spec invalid: %v", err)
	}
	w, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	// A 6-degree mosaic must be strictly bigger than a 4-degree one in
	// every aggregate.
	w4, err := Generate(FourDegree())
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTasks() <= w4.NumTasks() {
		t.Errorf("6-deg tasks %d not > 4-deg tasks %d", w.NumTasks(), w4.NumTasks())
	}
	if w.TotalRuntime() <= w4.TotalRuntime() {
		t.Errorf("6-deg runtime %v not > 4-deg %v", w.TotalRuntime(), w4.TotalRuntime())
	}
}

func TestOverlapPairs(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{45, 108}, {162, 402}, {662, 1698}, {4, 3}, {2, 1}, {5, 30},
	} {
		pairs := overlapPairs(tc.n, tc.want)
		if len(pairs) != tc.want {
			t.Errorf("overlapPairs(%d,%d) returned %d pairs", tc.n, tc.want, len(pairs))
		}
		for _, p := range pairs {
			if p[0] < 0 || p[0] >= tc.n || p[1] < 0 || p[1] >= tc.n {
				t.Fatalf("pair %v out of range for n=%d", p, tc.n)
			}
			if p[0] == p[1] {
				t.Fatalf("self-pair %v", p)
			}
		}
	}
}

func TestInputBytesReasonable(t *testing.T) {
	// Input volume should scale with image count and stay near the 3 MB
	// nominal plate size.
	for _, s := range Presets() {
		w, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		perImage := float64(w.InputBytes()) / float64(s.Images)
		if perImage < 2*units.MB || perImage > 4*units.MB {
			t.Errorf("%s: %.1f MB per input image, want ~3 MB", s.Name, perImage/units.MB)
		}
	}
}

// TestPaddedNamesMatchFmt: every generated name is fmt's "%0<width>d"
// spelling of its index, past the pad width too (index 10000 of a
// four-digit family, 100000 of a five-digit one).
func TestPaddedNamesMatchFmt(t *testing.T) {
	const n = 100_002
	for _, c := range []struct {
		prefix string
		width  int
		suffix string
	}{{"proj-", 4, ".fits"}, {"mDiffFit-", 5, ""}, {"fit-", 5, ".txt"}} {
		names := paddedNames(c.prefix, n, c.width, c.suffix)
		if len(names) != n {
			t.Fatalf("%s: %d names, want %d", c.prefix, len(names), n)
		}
		for i, got := range names {
			if want := fmt.Sprintf("%s%0*d%s", c.prefix, c.width, i, c.suffix); got != want {
				t.Fatalf("%s name %d = %q, want %q", c.prefix, i, got, want)
			}
		}
	}
}
