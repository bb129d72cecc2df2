package service

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/montage"
)

func oneClass() []Class {
	return []Class{{Name: "1deg", LocalTime: 100, CloudTime: 150, CloudCost: 0.60}}
}

func TestSimulateAllLocalWhenIdle(t *testing.T) {
	// Requests far apart: everything fits locally, no cloud spend.
	reqs := []Request{
		{ID: 0, Class: 0, Arrival: 0},
		{ID: 1, Class: 0, Arrival: 1000},
		{ID: 2, Class: 0, Arrival: 2000},
	}
	outcomes, stats, err := Simulate(oneClass(), reqs, Config{SLA: 200, CloudEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CloudRuns != 0 || stats.LocalRuns != 3 {
		t.Fatalf("local/cloud = %d/%d, want 3/0", stats.LocalRuns, stats.CloudRuns)
	}
	if stats.CloudSpend != 0 {
		t.Errorf("cloud spend = %v, want 0", stats.CloudSpend)
	}
	for _, o := range outcomes {
		if o.Turnaround() != 100 {
			t.Errorf("request %d turnaround = %v, want 100", o.ID, o.Turnaround())
		}
	}
	if stats.MeanTurnaround != 100 || stats.MaxTurnaround != 100 {
		t.Errorf("turnaround stats = %v/%v, want 100/100", stats.MeanTurnaround, stats.MaxTurnaround)
	}
	if stats.SLAViolations != 0 {
		t.Errorf("SLA violations = %d, want 0", stats.SLAViolations)
	}
}

func TestSimulateBurstsToCloud(t *testing.T) {
	// Three simultaneous arrivals, local time 100, SLA 150: the first
	// runs locally (turnaround 100), the second would finish at 200 >
	// SLA -> cloud, the third likewise.
	reqs := []Request{
		{ID: 0, Class: 0, Arrival: 0},
		{ID: 1, Class: 0, Arrival: 0},
		{ID: 2, Class: 0, Arrival: 0},
	}
	outcomes, stats, err := Simulate(oneClass(), reqs, Config{SLA: 150, CloudEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalRuns != 1 || stats.CloudRuns != 2 {
		t.Fatalf("local/cloud = %d/%d, want 1/2", stats.LocalRuns, stats.CloudRuns)
	}
	if got := float64(stats.CloudSpend); got != 1.2 {
		t.Errorf("cloud spend = %v, want $1.20", got)
	}
	// Cloud runs take CloudTime = 150, exactly meeting the SLA.
	if stats.SLAViolations != 0 {
		t.Errorf("SLA violations = %d, want 0", stats.SLAViolations)
	}
	if outcomes[1].Decision != Cloud || outcomes[1].Finish != 150 {
		t.Errorf("request 1 outcome = %+v, want cloud finish at 150", outcomes[1])
	}
}

func TestSimulateWithoutCloudQueues(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: 0, Arrival: 0},
		{ID: 1, Class: 0, Arrival: 0},
		{ID: 2, Class: 0, Arrival: 0},
	}
	_, stats, err := Simulate(oneClass(), reqs, Config{SLA: 150, CloudEnabled: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CloudRuns != 0 {
		t.Fatalf("cloud runs = %d with bursting disabled", stats.CloudRuns)
	}
	// Queueing: turnarounds 100, 200, 300 -> two violations.
	if stats.SLAViolations != 2 {
		t.Errorf("SLA violations = %d, want 2", stats.SLAViolations)
	}
	if stats.MaxTurnaround != 300 {
		t.Errorf("max turnaround = %v, want 300", stats.MaxTurnaround)
	}
	if stats.MeanTurnaround != 200 {
		t.Errorf("mean turnaround = %v, want 200", stats.MeanTurnaround)
	}
}

func TestSimulateSortsArrivals(t *testing.T) {
	reqs := []Request{
		{ID: 1, Class: 0, Arrival: 500},
		{ID: 0, Class: 0, Arrival: 0},
	}
	outcomes, _, err := Simulate(oneClass(), reqs, Config{SLA: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0].ID != 0 || outcomes[1].ID != 1 {
		t.Error("outcomes not in arrival order")
	}
}

func TestSimulateValidation(t *testing.T) {
	good := oneClass()
	reqs := []Request{{ID: 0, Class: 0, Arrival: 0}}
	if _, _, err := Simulate(nil, reqs, Config{SLA: 1}); err == nil {
		t.Error("no classes accepted")
	}
	if _, _, err := Simulate(good, reqs, Config{SLA: 0}); err == nil {
		t.Error("zero SLA accepted")
	}
	if _, _, err := Simulate(good, []Request{{Class: 5}}, Config{SLA: 1}); err == nil {
		t.Error("unknown class accepted")
	}
	if _, _, err := Simulate(good, []Request{{Arrival: -1}}, Config{SLA: 1}); err == nil {
		t.Error("negative arrival accepted")
	}
	bad := []Class{{Name: "", LocalTime: 1, CloudTime: 1}}
	if _, _, err := Simulate(bad, reqs, Config{SLA: 1}); err == nil {
		t.Error("nameless class accepted")
	}
	if Local.String() != "local" || Cloud.String() != "cloud" {
		t.Error("decision names wrong")
	}
}

func TestArrivalsGenerate(t *testing.T) {
	a := Arrivals{Seed: 7, N: 200, MeanGap: 100, Classes: 3}
	reqs, err := a.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 200 {
		t.Fatalf("generated %d requests, want 200", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
	for _, r := range reqs {
		if r.Class < 0 || r.Class >= 3 {
			t.Fatalf("class %d out of range", r.Class)
		}
	}
	// Deterministic.
	again, err := a.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestArrivalsBurstCompressesGaps(t *testing.T) {
	base := Arrivals{Seed: 3, N: 500, MeanGap: 100, Classes: 1}
	burst := base
	burst.BurstStart = 0
	burst.BurstEnd = 1e9
	burst.BurstRate = 10
	br, err := base.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bu, err := burst.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// A permanent 10x burst must compress the whole stream ~10x.
	ratio := float64(br[len(br)-1].Arrival) / float64(bu[len(bu)-1].Arrival)
	if ratio < 8 || ratio > 12 {
		t.Errorf("burst compression ratio = %.1f, want ~10", ratio)
	}
}

func TestArrivalsValidation(t *testing.T) {
	cases := []Arrivals{
		{N: 0, MeanGap: 1, Classes: 1},
		{N: 1, MeanGap: 0, Classes: 1},
		{N: 1, MeanGap: 1, Classes: 0},
		{N: 1, MeanGap: 1, Classes: 1, BurstStart: 10, BurstEnd: 5},
		{N: 1, MeanGap: 1, Classes: 1, BurstStart: 0, BurstEnd: 10, BurstRate: 0.5},
	}
	for i, a := range cases {
		if _, err := a.Generate(); err == nil {
			t.Errorf("case %d: invalid arrivals accepted", i)
		}
	}
}

func TestMeasureClassIntegration(t *testing.T) {
	cloud := core.DefaultPlan()
	cloud.Billing = core.Provisioned
	cloud.Processors = 16
	c, err := MeasureClass(montage.OneDegree(), 4, cloud)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 16-proc cloud pool beats the 4-proc local cluster on turnaround.
	if c.CloudTime >= c.LocalTime {
		t.Errorf("cloud %v not faster than local %v", c.CloudTime, c.LocalTime)
	}
	if c.CloudCost <= 0 {
		t.Error("cloud cost not positive")
	}
}

// Property: enabling the cloud never increases any request's turnaround
// and never increases SLA violations.
func TestPropCloudNeverHurtsLatency(t *testing.T) {
	classes := oneClass()
	f := func(seed int64, n uint8) bool {
		a := Arrivals{Seed: seed, N: int(n%50) + 1, MeanGap: 80, Classes: 1}
		reqs, err := a.Generate()
		if err != nil {
			return false
		}
		cfg := Config{SLA: 180}
		_, off, err := Simulate(classes, reqs, cfg)
		if err != nil {
			return false
		}
		cfg.CloudEnabled = true
		_, on, err := Simulate(classes, reqs, cfg)
		if err != nil {
			return false
		}
		return on.SLAViolations <= off.SLAViolations &&
			on.MeanTurnaround <= off.MeanTurnaround &&
			on.CloudSpend >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
