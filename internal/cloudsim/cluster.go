package cloudsim

import (
	"fmt"

	"repro/internal/units"
)

// Cluster is the provisioned compute resource: a pool of identical
// processors (the paper simulates "a single compute resource ... with the
// number of processors greater than the maximum parallelism" for the
// on-demand experiments, and 1..128 processors for the provisioned ones).
//
// The pool may be split into two sub-pools for mixed-fleet scenarios: a
// reliable on-demand floor that can never be revoked, and a revocable
// spot remainder.  A fleet with no reliable floor is a uniform (all-spot,
// fully revocable) pool, which reproduces both the paper's reliable runs
// (no revocations ever arrive) and the whole-pool spot scenarios.
//
// Besides slot management it integrates busy-processor-seconds and
// capacity-processor-seconds over time.  The former gives the on-demand
// CPU bill; the ratio of the two is CPU utilization against the capacity
// that was actually available, which stays honest when revocations
// shrink the pool mid-run.
type Cluster struct {
	provisioned int // slots originally provisioned
	reliable    int // on-demand sub-pool: the revocation floor
	total       int // slots currently present (provisioned minus revoked)
	busy        int
	busyRel     int // busy slots in the reliable sub-pool

	lastTime               units.Duration
	busyProcSeconds        float64
	spotBusyProcSeconds    float64
	capacityProcSeconds    float64
	reliableCapProcSeconds float64
}

// NewFleet returns a mixed fleet: n processors total, of which reliable
// form an on-demand sub-pool that revocations can never touch.  The
// remaining n-reliable processors are the revocable spot sub-pool.
func NewFleet(n, reliable int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cloudsim: cluster needs at least 1 processor, got %d", n)
	}
	if reliable < 0 || reliable > n {
		return nil, fmt.Errorf("cloudsim: reliable sub-pool %d outside [0, %d]", reliable, n)
	}
	return &Cluster{provisioned: n, reliable: reliable, total: n}, nil
}

func (c *Cluster) advance(now units.Duration) {
	if now < c.lastTime {
		panic(fmt.Sprintf("cloudsim: cluster time went backwards: %v < %v", now, c.lastTime))
	}
	dt := (now - c.lastTime).Seconds()
	c.busyProcSeconds += float64(c.busy) * dt
	c.spotBusyProcSeconds += float64(c.busy-c.busyRel) * dt
	c.capacityProcSeconds += float64(c.total) * dt
	c.reliableCapProcSeconds += float64(c.reliable) * dt
	c.lastTime = now
}

// AcquireReliable takes one free processor from the reliable on-demand
// sub-pool, reporting false when it is full (always, on a uniform pool).
func (c *Cluster) AcquireReliable(now units.Duration) bool {
	if c.busyRel >= c.reliable {
		return false
	}
	c.advance(now)
	c.busy++
	c.busyRel++
	return true
}

// AcquireSpot takes one free processor from the revocable spot sub-pool,
// reporting false when none is free there.
func (c *Cluster) AcquireSpot(now units.Duration) bool {
	if c.busy-c.busyRel >= c.total-c.reliable {
		return false
	}
	c.advance(now)
	c.busy++
	return true
}

// ReleaseReliable returns one processor to the reliable sub-pool.
func (c *Cluster) ReleaseReliable(now units.Duration) error {
	if c.busyRel == 0 {
		return fmt.Errorf("cloudsim: release with no reliable processor busy")
	}
	c.advance(now)
	c.busy--
	c.busyRel--
	return nil
}

// ReleaseSpot returns one processor to the spot sub-pool.
func (c *Cluster) ReleaseSpot(now units.Duration) error {
	if c.busy-c.busyRel == 0 {
		return fmt.Errorf("cloudsim: release with no spot processor busy")
	}
	c.advance(now)
	c.busy--
	return nil
}

// Revoke removes k idle processors from the spot sub-pool (a spot
// capacity reclaim).  The reliable on-demand sub-pool is never touched;
// the caller must evict enough running spot tasks first, since revoking
// below the spot busy count is a simulation bug.
func (c *Cluster) Revoke(now units.Duration, k int) error {
	if k < 0 || k > c.SpotTotal() {
		return fmt.Errorf("cloudsim: cannot revoke %d of %d spot processors", k, c.SpotTotal())
	}
	if k > c.SpotFree() {
		return fmt.Errorf("cloudsim: revoking %d processors would strand %d busy tasks on %d spot slots",
			k, c.busy-c.busyRel, c.SpotTotal()-k)
	}
	c.advance(now)
	c.total -= k
	return nil
}

// Restore returns k previously revoked processors to the pool.
func (c *Cluster) Restore(now units.Duration, k int) error {
	if k < 0 || c.total+k > c.provisioned {
		return fmt.Errorf("cloudsim: cannot restore %d processors to %d of %d provisioned",
			k, c.total, c.provisioned)
	}
	c.advance(now)
	c.total += k
	return nil
}

// Provisioned returns the originally provisioned processor count,
// regardless of revocations.
func (c *Cluster) Provisioned() int { return c.provisioned }

// Reliable returns the size of the reliable on-demand sub-pool.
func (c *Cluster) Reliable() int { return c.reliable }

// Total returns the processors currently present in the pool.
func (c *Cluster) Total() int { return c.total }

// Busy returns the processors currently in use.
func (c *Cluster) Busy() int { return c.busy }

// Free returns the processors currently idle.
func (c *Cluster) Free() int { return c.total - c.busy }

// FreeReliable returns the idle processors of the reliable sub-pool.
func (c *Cluster) FreeReliable() int { return c.reliable - c.busyRel }

// SpotTotal returns the spot-sub-pool processors currently present.
func (c *Cluster) SpotTotal() int { return c.total - c.reliable }

// SpotFree returns the idle processors of the spot sub-pool.
func (c *Cluster) SpotFree() int { return c.SpotTotal() - (c.busy - c.busyRel) }

// BusyProcSeconds returns the integral of busy processors over time up
// to now: the CPU-seconds actually consumed.
func (c *Cluster) BusyProcSeconds(now units.Duration) float64 {
	c.advance(now)
	return c.busyProcSeconds
}

// SpotBusyProcSeconds returns the integral of busy spot-sub-pool
// processors over time up to now: the CPU-seconds billed at the spot
// rate in a mixed fleet.
func (c *Cluster) SpotBusyProcSeconds(now units.Duration) float64 {
	c.advance(now)
	return c.spotBusyProcSeconds
}

// CapacityProcSeconds returns the integral of present processors over
// time up to now: the processor-seconds that were actually available,
// shrinking through every revocation window and growing back on restore.
func (c *Cluster) CapacityProcSeconds(now units.Duration) float64 {
	c.advance(now)
	return c.capacityProcSeconds
}

// ReliableCapacityProcSeconds returns the reliable sub-pool's share of
// the capacity integral up to now.  Revocations never touch the
// reliable floor, so this is exactly reliable-processors x elapsed
// time; the spot share is the remainder of CapacityProcSeconds.
func (c *Cluster) ReliableCapacityProcSeconds(now units.Duration) float64 {
	c.advance(now)
	return c.reliableCapProcSeconds
}
