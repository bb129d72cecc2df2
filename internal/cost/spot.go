package cost

import (
	"repro/internal/exec"
	"repro/internal/units"
)

// Spot is a spot-market model layered on a base fee schedule: the same
// capacity at a discounted CPU rate, in exchange for the provider's
// right to reclaim it.  Amazon introduced spot instances in 2009, one
// year after the paper; this captures the trade its §8 reliability
// discussion anticipates.  Storage and transfer rates are unaffected --
// only compute is sold on the spot market.
type Spot struct {
	// Discount is the fraction taken off the on-demand CPU rate, in
	// [0, 1): 0.65 means spot CPU costs 35% of on-demand.
	Discount float64
	// RevocationsPerHour is the expected rate of capacity reclaims
	// while running (the Poisson intensity SpotSchedule samples from).
	RevocationsPerHour float64
}

// Apply returns the fee schedule with the CPU rate discounted to the
// spot price; every other rate is unchanged.
func (s Spot) Apply(p Pricing) Pricing {
	p.CPUPerHour *= units.Money(1 - s.Discount)
	return p
}

// OnDemandMixed prices a mixed-fleet run under on-demand CPU charging:
// the CPU-seconds consumed on the reliable sub-pool bill at the full
// rate, the spot sub-pool's at the discounted spot rate.  Storage and
// transfer are market-independent.
func (s Spot) OnDemandMixed(p Pricing, m exec.Metrics) Breakdown {
	b := p.OnDemand(m)
	reliableCPU := m.CPUSeconds - m.SpotCPUSeconds
	if reliableCPU < 0 {
		reliableCPU = 0
	}
	b.CPU = p.CPUCost(reliableCPU) + s.Apply(p).CPUCost(m.SpotCPUSeconds)
	return b
}

// ProvisionedMixed prices a mixed-fleet run under provisioned CPU
// charging: the reliable sub-pool is held (and billed at the full rate,
// honoring the billing granularity) for the whole execution window,
// while the spot sub-pool bills its integrated available capacity at
// the spot rate -- revoked capacity stops billing until it is restored,
// exactly as a replacement spot instance would.
func (s Spot) ProvisionedMixed(p Pricing, m exec.Metrics) Breakdown {
	b := p.Provisioned(m)
	spotCapacity := m.CapacityProcSeconds - float64(m.OnDemandProcessors)*m.ExecTime.Seconds()
	if spotCapacity < 0 {
		spotCapacity = 0
	}
	b.CPU = p.ProvisionedCPUCost(m.OnDemandProcessors, m.ExecTime) + s.Apply(p).CPUCost(spotCapacity)
	return b
}
