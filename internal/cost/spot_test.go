package cost

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/units"
)

func TestSpotApplyDiscountsOnlyCPU(t *testing.T) {
	s := Spot{Discount: 0.65, RevocationsPerHour: 0.5}
	p := s.Apply(Amazon2008())
	if math.Abs(float64(p.CPUPerHour)-0.035) > 1e-12 {
		t.Errorf("spot CPU rate = %v, want 0.035", p.CPUPerHour)
	}
	base := Amazon2008()
	if p.StoragePerGBMonth != base.StoragePerGBMonth ||
		p.TransferInPerGB != base.TransferInPerGB ||
		p.TransferOutPerGB != base.TransferOutPerGB {
		t.Errorf("spot touched non-CPU rates: %+v", p)
	}
	// Zero discount is the on-demand schedule.
	if got := (Spot{}).Apply(base); got != base {
		t.Errorf("zero spot changed the schedule: %+v", got)
	}
}

func TestSpotMixedPricing(t *testing.T) {
	p := Amazon2008()
	s := Spot{Discount: 0.5}
	m := exec.Metrics{
		Processors:          4,
		OnDemandProcessors:  2,
		ExecTime:            3600,
		CPUSeconds:          3600 * 3, // 2 reliable proc-hours + 1 spot
		SpotCPUSeconds:      3600,
		CapacityProcSeconds: 3600 * 3.5, // half a spot proc-hour revoked
	}
	od := s.OnDemandMixed(p, m)
	// 2 CPU-hours at $0.10 plus 1 spot CPU-hour at $0.05.
	if want := units.Money(0.25); math.Abs(float64(od.CPU-want)) > 1e-12 {
		t.Errorf("OnDemandMixed CPU = %v, want %v", od.CPU, want)
	}
	pv := s.ProvisionedMixed(p, m)
	// 2 reliable proc-hours at $0.10 plus 1.5 available spot proc-hours
	// at $0.05: revoked capacity stops billing.
	if want := units.Money(0.275); math.Abs(float64(pv.CPU-want)) > 1e-12 {
		t.Errorf("ProvisionedMixed CPU = %v, want %v", pv.CPU, want)
	}
	// Non-CPU components match the plain schedules.
	if plain := p.OnDemand(m); od.Storage != plain.Storage || od.TransferIn != plain.TransferIn || od.TransferOut != plain.TransferOut {
		t.Errorf("OnDemandMixed touched non-CPU components: %+v vs %+v", od, plain)
	}
}
