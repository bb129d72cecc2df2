package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSamplerDeterministic(t *testing.T) {
	p := Profile{Base: 100, Jitter: 0.3}
	a, b := NewSampler(42), NewSampler(42)
	for i := 0; i < 100; i++ {
		if va, vb := a.Sample(p), b.Sample(p); va != vb {
			t.Fatalf("draw %d: %v != %v for identical seeds", i, va, vb)
		}
	}
	c := NewSampler(43)
	same := true
	a = NewSampler(42)
	for i := 0; i < 10; i++ {
		if a.Sample(p) != c.Sample(p) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSampleNoJitterIsExact(t *testing.T) {
	s := NewSampler(1)
	p := Profile{Base: 123.5}
	for i := 0; i < 5; i++ {
		if got := s.Sample(p); got != 123.5 {
			t.Fatalf("Sample = %v, want 123.5", got)
		}
	}
}

func TestSampleBounds(t *testing.T) {
	s := NewSampler(7)
	p := Profile{Base: 100, Jitter: 0.25}
	for i := 0; i < 10000; i++ {
		v := s.Sample(p)
		if v < 75 || v > 125 {
			t.Fatalf("sample %v outside [75,125]", v)
		}
	}
}

func TestSampleMeanApproximatesBase(t *testing.T) {
	s := NewSampler(99)
	p := Profile{Base: 200, Jitter: 0.5}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Sample(p)
	}
	mean := sum / n
	if math.Abs(mean-200) > 2 {
		t.Errorf("mean = %v, want ~200", mean)
	}
}

func TestSampleBytesRounds(t *testing.T) {
	s := NewSampler(3)
	if got := s.SampleBytes(Profile{Base: 1000.4}); got != 1000 {
		t.Errorf("SampleBytes = %d, want 1000", got)
	}
}

func TestCalibrationFactor(t *testing.T) {
	f, err := CalibrationFactor([]float64{1, 2, 3}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 {
		t.Errorf("factor = %v, want 2", f)
	}
	if _, err := CalibrationFactor(nil, 10); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := CalibrationFactor([]float64{0, 0}, 10); err == nil {
		t.Error("zero-sum population accepted")
	}
	if _, err := CalibrationFactor([]float64{1}, 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := CalibrationFactor([]float64{1}, -5); err == nil {
		t.Error("negative target accepted")
	}
}

// Property: scaling by the calibration factor hits the target exactly
// (up to float rounding).
func TestPropCalibrationHitsTarget(t *testing.T) {
	f := func(raw []uint16, tgt uint16) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			values[i] = float64(r) + 1 // strictly positive
			sum += values[i]
		}
		target := float64(tgt) + 1
		factor, err := CalibrationFactor(values, target)
		if err != nil {
			return false
		}
		var scaled float64
		for _, v := range values {
			scaled += v * factor
		}
		return math.Abs(scaled-target) <= 1e-9*math.Max(1, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: samples always stay within the jitter envelope.
func TestPropSampleEnvelope(t *testing.T) {
	f := func(seed int64, base uint16, jit uint8) bool {
		p := Profile{Base: float64(base), Jitter: float64(jit%100) / 100}
		s := NewSampler(seed)
		for i := 0; i < 50; i++ {
			v := s.Sample(p)
			lo := p.Base * (1 - p.Jitter)
			hi := p.Base * (1 + p.Jitter)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
